//! The client↔KVS network protocol.
//!
//! One request or response per frame; requests carry a client-chosen id the
//! response echoes, so clients can pipeline.

use lastcpu_bus::wire::{WireReader, WireWriter};

/// A KVS request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvsRequest {
    /// Fetch a value.
    Get {
        /// Request id echoed in the response.
        id: u64,
        /// The key.
        key: Vec<u8>,
    },
    /// Insert or update a value.
    Put {
        /// Request id echoed in the response.
        id: u64,
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Vec<u8>,
    },
    /// Remove a key.
    Delete {
        /// Request id echoed in the response.
        id: u64,
        /// The key.
        key: Vec<u8>,
    },
}

impl KvsRequest {
    /// The request id.
    pub fn id(&self) -> u64 {
        match self {
            KvsRequest::Get { id, .. }
            | KvsRequest::Put { id, .. }
            | KvsRequest::Delete { id, .. } => *id,
        }
    }

    /// Encodes to frame payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            KvsRequest::Get { id, key } => {
                w.u8(1);
                w.u64(*id);
                w.bytes(key);
            }
            KvsRequest::Put { id, key, value } => {
                w.u8(2);
                w.u64(*id);
                w.bytes(key);
                w.bytes(value);
            }
            KvsRequest::Delete { id, key } => {
                w.u8(3);
                w.u64(*id);
                w.bytes(key);
            }
        }
        w.finish()
    }

    /// Decodes from frame payload bytes.
    pub fn decode(buf: &[u8]) -> Option<KvsRequest> {
        KvsRequestRef::decode(buf).map(|r| r.to_owned())
    }
}

/// A decoded request view borrowing key/value bytes from the frame payload.
///
/// The server's fast path decodes into this — zero allocations — and only
/// materializes owned buffers ([`KvsRequestRef::to_owned`]) when the request
/// must be queued or handed to the storage engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvsRequestRef<'a> {
    /// Fetch a value.
    Get {
        /// Request id echoed in the response.
        id: u64,
        /// The key, borrowed from the payload.
        key: &'a [u8],
    },
    /// Insert or update a value.
    Put {
        /// Request id echoed in the response.
        id: u64,
        /// The key, borrowed from the payload.
        key: &'a [u8],
        /// The value, borrowed from the payload.
        value: &'a [u8],
    },
    /// Remove a key.
    Delete {
        /// Request id echoed in the response.
        id: u64,
        /// The key, borrowed from the payload.
        key: &'a [u8],
    },
}

impl<'a> KvsRequestRef<'a> {
    /// The request id.
    pub fn id(&self) -> u64 {
        match self {
            KvsRequestRef::Get { id, .. }
            | KvsRequestRef::Put { id, .. }
            | KvsRequestRef::Delete { id, .. } => *id,
        }
    }

    /// The key bytes.
    pub fn key(&self) -> &'a [u8] {
        match self {
            KvsRequestRef::Get { key, .. }
            | KvsRequestRef::Put { key, .. }
            | KvsRequestRef::Delete { key, .. } => key,
        }
    }

    /// Decodes a borrowed view from frame payload bytes, allocation-free.
    pub fn decode(buf: &'a [u8]) -> Option<KvsRequestRef<'a>> {
        let mut r = WireReader::new(buf);
        let req = match r.u8().ok()? {
            1 => KvsRequestRef::Get {
                id: r.u64().ok()?,
                key: r.bytes_ref().ok()?,
            },
            2 => KvsRequestRef::Put {
                id: r.u64().ok()?,
                key: r.bytes_ref().ok()?,
                value: r.bytes_ref().ok()?,
            },
            3 => KvsRequestRef::Delete {
                id: r.u64().ok()?,
                key: r.bytes_ref().ok()?,
            },
            _ => return None,
        };
        r.expect_end().ok()?;
        Some(req)
    }

    /// Copies the borrowed fields into an owned [`KvsRequest`].
    pub fn to_owned(self) -> KvsRequest {
        match self {
            KvsRequestRef::Get { id, key } => KvsRequest::Get {
                id,
                key: key.to_vec(),
            },
            KvsRequestRef::Put { id, key, value } => KvsRequest::Put {
                id,
                key: key.to_vec(),
                value: value.to_vec(),
            },
            KvsRequestRef::Delete { id, key } => KvsRequest::Delete {
                id,
                key: key.to_vec(),
            },
        }
    }
}

/// Response status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvsStatus {
    /// Success (GETs carry the value).
    Ok,
    /// Key not found.
    NotFound,
    /// Server temporarily overloaded (client should back off/retry).
    Busy,
    /// Server-side failure (storage error, oversized request...).
    Error,
    /// Server lost a backing resource (SSD session, memory grant) and is
    /// re-running discovery/recovery. Unlike [`KvsStatus::Error`] this is an
    /// explicit degradation signal: the request was *not* attempted and the
    /// client should retry after the server re-initialises (§ failure model).
    Unavailable,
}

impl KvsStatus {
    fn to_u8(self) -> u8 {
        match self {
            KvsStatus::Ok => 0,
            KvsStatus::NotFound => 1,
            KvsStatus::Busy => 2,
            KvsStatus::Error => 3,
            KvsStatus::Unavailable => 4,
        }
    }

    fn from_u8(v: u8) -> KvsStatus {
        match v {
            0 => KvsStatus::Ok,
            1 => KvsStatus::NotFound,
            2 => KvsStatus::Busy,
            4 => KvsStatus::Unavailable,
            _ => KvsStatus::Error,
        }
    }
}

/// A KVS response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvsResponse {
    /// Echoed request id.
    pub id: u64,
    /// Outcome.
    pub status: KvsStatus,
    /// Value bytes (GET hits only).
    pub value: Vec<u8>,
}

impl KvsResponse {
    /// Builds a [`KvsStatus::Busy`] response carrying the server's current
    /// queue depth (backlog + in-flight) in the value bytes. The depth is
    /// the backpressure signal: a congestion-aware router scales its
    /// re-dispatch deferral by it instead of retrying blind.
    pub fn busy(id: u64, depth: u32) -> KvsResponse {
        KvsResponse {
            id,
            status: KvsStatus::Busy,
            value: depth.to_le_bytes().to_vec(),
        }
    }

    /// The queue depth a [`KvsStatus::Busy`] response reported, if any.
    /// Older/minimal Busy responses carry no payload; they read as `None`
    /// and callers fall back to a default backoff.
    pub fn busy_depth(&self) -> Option<u32> {
        if self.status != KvsStatus::Busy {
            return None;
        }
        let bytes: [u8; 4] = self.value.as_slice().try_into().ok()?;
        Some(u32::from_le_bytes(bytes))
    }

    /// Encodes to frame payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        encode_response(self.id, self.status, &self.value)
    }

    /// Decodes from frame payload bytes.
    pub fn decode(buf: &[u8]) -> Option<KvsResponse> {
        KvsResponseRef::decode(buf).map(|r| KvsResponse {
            id: r.id,
            status: r.status,
            value: r.value.to_vec(),
        })
    }
}

/// A decoded response view borrowing the value bytes from the payload.
/// Clients that only inspect the value (or ignore it) decode through this
/// without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvsResponseRef<'a> {
    /// Echoed request id.
    pub id: u64,
    /// Outcome.
    pub status: KvsStatus,
    /// Value bytes (GET hits only), borrowed from the payload.
    pub value: &'a [u8],
}

impl<'a> KvsResponseRef<'a> {
    /// Decodes a borrowed view from frame payload bytes, allocation-free.
    pub fn decode(buf: &'a [u8]) -> Option<KvsResponseRef<'a>> {
        let mut r = WireReader::new(buf);
        let status = KvsStatus::from_u8(r.u8().ok()?);
        let id = r.u64().ok()?;
        let value = r.bytes_ref().ok()?;
        r.expect_end().ok()?;
        Some(KvsResponseRef { id, status, value })
    }

    /// The queue depth a [`KvsStatus::Busy`] response reported, if any
    /// (see [`KvsResponse::busy_depth`]).
    pub fn busy_depth(&self) -> Option<u32> {
        if self.status != KvsStatus::Busy {
            return None;
        }
        let bytes: [u8; 4] = self.value.try_into().ok()?;
        Some(u32::from_le_bytes(bytes))
    }
}

/// Encodes a GET request straight into `buf` (appended), from a borrowed
/// key — the client's zero-alloc issue path. Wire-identical to
/// `KvsRequest::Get { id, key }.encode()`.
pub fn encode_get_into(id: u64, key: &[u8], buf: &mut Vec<u8>) {
    let mut w = WireWriter::with_buf(std::mem::take(buf));
    w.u8(1);
    w.u64(id);
    w.bytes(key);
    *buf = w.finish();
}

/// Encodes a PUT request straight into `buf` (appended), from borrowed key
/// and value. Wire-identical to `KvsRequest::Put { .. }.encode()`.
pub fn encode_put_into(id: u64, key: &[u8], value: &[u8], buf: &mut Vec<u8>) {
    let mut w = WireWriter::with_buf(std::mem::take(buf));
    w.u8(2);
    w.u64(id);
    w.bytes(key);
    w.bytes(value);
    *buf = w.finish();
}

/// Encodes a response directly from a borrowed value, without building a
/// [`KvsResponse`] first. The server's cache-hit fast path uses this to
/// serialize straight out of the value cache — no intermediate copy of the
/// value bytes.
pub fn encode_response(id: u64, status: KvsStatus, value: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_response_into(id, status, value, &mut buf);
    buf
}

/// Like [`encode_response`], but appends into a caller-supplied buffer
/// (typically drawn from the machine's payload pool). The zero-alloc
/// delivery path serializes every response through here.
pub fn encode_response_into(id: u64, status: KvsStatus, value: &[u8], buf: &mut Vec<u8>) {
    let mut w = WireWriter::with_buf(std::mem::take(buf));
    w.u8(status.to_u8());
    w.u64(id);
    w.bytes(value);
    *buf = w.finish();
}

impl KvsStatus {
    /// Stable one-byte tag for snapshot sections (same values as the wire).
    pub fn snap_encode(self) -> u8 {
        self.to_u8()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            KvsRequest::Get {
                id: 7,
                key: b"k".to_vec(),
            },
            KvsRequest::Put {
                id: 8,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
            KvsRequest::Delete {
                id: 9,
                key: b"k".to_vec(),
            },
        ] {
            assert_eq!(KvsRequest::decode(&req.encode()), Some(req));
        }
        assert_eq!(KvsRequest::decode(&[99]), None);
        assert_eq!(KvsRequest::decode(&[]), None);
    }

    #[test]
    fn responses_round_trip() {
        for status in [
            KvsStatus::Ok,
            KvsStatus::NotFound,
            KvsStatus::Busy,
            KvsStatus::Error,
            KvsStatus::Unavailable,
        ] {
            let resp = KvsResponse {
                id: 42,
                status,
                value: b"value".to_vec(),
            };
            assert_eq!(KvsResponse::decode(&resp.encode()), Some(resp));
        }
    }

    #[test]
    fn id_accessor() {
        assert_eq!(KvsRequest::Get { id: 5, key: vec![] }.id(), 5);
    }

    #[test]
    fn borrowed_views_agree_with_owned_decode() {
        let reqs = [
            KvsRequest::Get {
                id: 7,
                key: b"k1".to_vec(),
            },
            KvsRequest::Put {
                id: 8,
                key: b"k2".to_vec(),
                value: b"v".to_vec(),
            },
            KvsRequest::Delete {
                id: 9,
                key: b"k3".to_vec(),
            },
        ];
        for req in reqs {
            let wire = req.encode();
            let view = KvsRequestRef::decode(&wire).unwrap();
            assert_eq!(view.to_owned(), req);
            assert_eq!(view.id(), req.id());
        }
        let resp = KvsResponse {
            id: 3,
            status: KvsStatus::Ok,
            value: b"val".to_vec(),
        };
        let wire = resp.encode();
        let view = KvsResponseRef::decode(&wire).unwrap();
        assert_eq!(view.id, 3);
        assert_eq!(view.status, KvsStatus::Ok);
        assert_eq!(view.value, b"val");
        let busy = KvsResponse::busy(4, 77).encode();
        assert_eq!(
            KvsResponseRef::decode(&busy).unwrap().busy_depth(),
            Some(77)
        );
    }

    #[test]
    fn into_buffer_encoders_are_wire_identical() {
        let mut buf = Vec::new();
        encode_get_into(11, b"key", &mut buf);
        assert_eq!(
            buf,
            KvsRequest::Get {
                id: 11,
                key: b"key".to_vec()
            }
            .encode()
        );
        buf.clear();
        encode_put_into(12, b"key", b"value", &mut buf);
        assert_eq!(
            buf,
            KvsRequest::Put {
                id: 12,
                key: b"key".to_vec(),
                value: b"value".to_vec()
            }
            .encode()
        );
        buf.clear();
        encode_response_into(13, KvsStatus::NotFound, b"", &mut buf);
        assert_eq!(buf, encode_response(13, KvsStatus::NotFound, b""));
    }

    #[test]
    fn busy_depth_round_trips() {
        let resp = KvsResponse::busy(7, 513);
        assert_eq!(resp.status, KvsStatus::Busy);
        assert_eq!(resp.busy_depth(), Some(513));
        let wire = KvsResponse::decode(&resp.encode()).unwrap();
        assert_eq!(wire.busy_depth(), Some(513));
        // Legacy empty-payload Busy and non-Busy responses report no depth.
        let legacy = KvsResponse {
            id: 7,
            status: KvsStatus::Busy,
            value: vec![],
        };
        assert_eq!(legacy.busy_depth(), None);
        let ok = KvsResponse {
            id: 7,
            status: KvsStatus::Ok,
            value: 9u32.to_le_bytes().to_vec(),
        };
        assert_eq!(ok.busy_depth(), None);
    }
}
