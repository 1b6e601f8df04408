//! L3 fixture: encoder/decoder pairs in the same module.

pub struct Widget {
    pub id: u64,
}

pub fn encode_widget(w: &Widget) -> Vec<u8> {
    w.id.to_be_bytes().to_vec()
}

pub fn decode_widget(bytes: &[u8]) -> Option<Widget> {
    let id = u64::from_be_bytes(bytes.try_into().ok()?);
    Some(Widget { id })
}

// An in-place encoder and a shared-buffer decoder are the same pair.
pub fn encode_gadget_into(out: &mut Vec<u8>, id: u64) {
    out.extend_from_slice(&id.to_be_bytes());
}

pub fn decode_gadget_shared(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(bytes.try_into().ok()?))
}

// A method named `encode_into` beside `encode` is not a codec of its own.
pub fn encode_into(_out: &mut Vec<u8>) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let w = Widget { id: 7 };
        let d = decode_widget(&encode_widget(&w)).unwrap();
        assert_eq!(d.id, 7);
        let mut out = Vec::new();
        encode_gadget_into(&mut out, 9);
        assert_eq!(decode_gadget_shared(&out), Some(9));
    }
}
