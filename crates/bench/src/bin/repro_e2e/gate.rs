//! The correctness gate: every measured response body is compared,
//! by length and hash, with the body the same engine produced when the
//! request was run directly during set-up.

/// Length and FNV-1a hash of an expected response body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub len: usize,
    pub hash: u64,
}

impl Fingerprint {
    pub fn of(body: &[u8]) -> Fingerprint {
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for &b in body {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Fingerprint {
            len: body.len(),
            hash,
        }
    }
}

/// Why a response was counted as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The server answered outside 2xx.
    Status(u16),
    /// A 2xx body that is not the expected one.
    BodyMismatch,
    /// Connect/read/write error or timeout.
    Io,
}

/// Check one response against what set-up recorded for its request.
pub fn check(expect: Fingerprint, status: u16, body: &[u8]) -> Result<(), Failure> {
    if !(200..300).contains(&status) {
        return Err(Failure::Status(status));
    }
    if Fingerprint::of(body) != expect {
        return Err(Failure::BodyMismatch);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_the_recorded_body_and_fails_anything_else() {
        let body = b"{\"head\":{},\"boolean\":true}";
        let expect = Fingerprint::of(body);
        assert_eq!(check(expect, 200, body), Ok(()));
        // A deliberately wrong expected hash must fail the gate.
        let wrong = Fingerprint {
            hash: expect.hash ^ 1,
            ..expect
        };
        assert_eq!(check(wrong, 200, body), Err(Failure::BodyMismatch));
        // Same length, one byte differs.
        assert_eq!(
            check(expect, 200, b"{\"head\":{},\"boolean\":trux}"),
            Err(Failure::BodyMismatch)
        );
        assert_eq!(check(expect, 503, body), Err(Failure::Status(503)));
    }
}
