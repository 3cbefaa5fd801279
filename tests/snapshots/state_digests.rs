// @generated by `UPDATE_GOLDEN=1 cargo test --test due_policy`.
// Do not edit by hand; regenerate and commit this file together with
// the change that moved the digests.

/// `state_digest()` of [`dlb`] at `PIN_CYCLE`, one per protocol in
/// `ProtocolKind::ALL` order.
const PINNED_DIGESTS: [u64; 7] = [
    0x62b7a09fc695fc9f, // MESI
    0x6c69ba118636f2f0, // MESI-WB
    0x23540fa7b4901267, // TCS
    0x638db73be6150302, // TCW
    0x97d084ceb4ae3fb6, // RCC-SC
    0xeaf56a6c79e78a63, // RCC-WO
    0x486a14de348400a8, // SC-IDEAL
];

/// `state_digest()` of [`stn`] at `PIN_CYCLE`, one per protocol in
/// `ProtocolKind::ALL` order.
const PINNED_STN_DIGESTS: [u64; 7] = [
    0x0b44c184e3a0c5e2, // MESI
    0xbab2764db602ccd2, // MESI-WB
    0x7e7ea775719060a3, // TCS
    0x0a2c8366379b99e6, // TCW
    0xed6ea306f6038ee1, // RCC-SC
    0x998e72eb96520970, // RCC-WO
    0xf8f1669d93e62999, // SC-IDEAL
];

/// `state_digest()` of RCC-WO on [`vpr_with_rollover`] at
/// `DRAIN_BOUNDARY`.
const PINNED_DRAIN: u64 = 0x5c2e33e673609519;
