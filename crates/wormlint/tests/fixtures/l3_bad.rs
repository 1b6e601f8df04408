//! L3 fixture: an encoder with no matching decoder is a canonicality
//! hazard — bytes that can be produced but never validated.

pub struct Widget {
    pub id: u64,
}

pub fn encode_widget(w: &Widget) -> Vec<u8> { //~ codec-pair
    w.id.to_be_bytes().to_vec()
}

pub fn encode_gadget(id: u64) -> Vec<u8> { //~ codec-pair
    id.to_le_bytes().to_vec()
}

// `_into` names the same pair; it is not a way around the rule.
pub fn encode_sprocket_into(out: &mut Vec<u8>, id: u64) { //~ codec-pair
    out.extend_from_slice(&id.to_be_bytes());
}

// decode_other does not pair with either encoder above.
pub fn decode_other(_bytes: &[u8]) -> Option<Widget> {
    None
}
