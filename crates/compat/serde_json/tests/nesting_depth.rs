//! Hostile nesting cannot overflow the stack: past `serde::MAX_DEPTH`
//! open arrays or objects, decoding returns an error. Each document is
//! decoded on a spawned thread with the default stack, where the serve
//! daemon decodes its requests.

use acclaim_serve::protocol::decode_request;
use serde_json::{from_str, Value};

fn hostile_lines() -> [String; 3] {
    [
        "[".repeat(100_000),
        "{\"a\":".repeat(100_000),
        format!("{{\"Query\":{{\"request\":{}", "{\"a\":[".repeat(50_000)),
    ]
}

#[test]
fn deep_nesting_is_an_error_on_a_default_stack() {
    std::thread::spawn(|| {
        for line in hostile_lines() {
            let e = decode_request(&line).unwrap_err();
            assert!(e.starts_with("bad request: "), "{e}");
            assert!(from_str::<Value>(&line).is_err());
        }
    })
    .join()
    .expect("decoding on a default-stack thread");
}

#[test]
fn nesting_up_to_the_cap_decodes() {
    let depth = serde::MAX_DEPTH;
    let arrays = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(from_str::<Value>(&arrays).is_ok());
    let objects = format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
    assert!(from_str::<Value>(&objects).is_ok());
    let deeper = format!("[{arrays}]");
    let e = from_str::<Value>(&deeper).unwrap_err();
    assert!(e.to_string().contains("nesting deeper than"), "{e}");
}
