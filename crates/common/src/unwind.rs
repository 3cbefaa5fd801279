//! Panic payloads as text, for the job pools and workers that catch
//! panics and report them.

/// Renders a panic payload as a one-line reason.
pub fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::panic_reason;

    #[test]
    fn literal_formatted_and_opaque_payloads() {
        let reason = |f: fn()| panic_reason(std::panic::catch_unwind(f).unwrap_err().as_ref());
        assert_eq!(reason(|| panic!("literal")), "literal");
        assert_eq!(reason(|| panic!("job {}", 1)), "job 1");
        assert_eq!(
            reason(|| std::panic::panic_any(7u8)),
            "panic with non-string payload"
        );
    }
}
