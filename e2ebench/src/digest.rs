//! Output fingerprints: FNV-1a over every summary and model byte, checked
//! against golden values committed next to the benchmark for the default
//! seed.

/// The golden digests: one `workload seed hex` line each.
pub const GOLDEN: &str = include_str!("../golden.txt");

/// 64-bit FNV-1a, chained across calls.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of one buffer.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.update(bytes);
    h.finish()
}

/// Checks `digest` against the golden line for `(workload, seed)` in
/// `golden`. Pairs without a golden line pass: only the default seed is
/// pinned.
pub fn check_golden(golden: &str, workload: &str, seed: u64, digest: u64) -> Result<(), String> {
    let want = golden.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(w), Some(s), Some(hex)) if w == workload && s == seed.to_string() => {
                Some(hex.to_owned())
            }
            _ => None,
        }
    });
    match want {
        Some(hex) if hex != format!("{digest:016x}") => Err(format!(
            "{workload} output digest {digest:016x} differs from the golden {hex} for seed {seed}"
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn golden_mismatch_is_an_error() {
        let golden = "train 1 00000000000000ff\n";
        assert!(check_golden(golden, "train", 1, 0xff).is_ok());
        let err = check_golden(golden, "train", 1, 0xfe).expect_err("mismatch must fail");
        assert!(err.contains("golden"), "{err}");
        // Seeds and workloads without a golden line are not pinned.
        assert!(check_golden(golden, "train", 2, 0xfe).is_ok());
        assert!(check_golden(golden, "serve-hub", 1, 0xfe).is_ok());
    }

    #[test]
    fn committed_golden_file_pins_every_workload_at_the_default_seed() {
        for (w, _) in crate::spec::WORKLOADS {
            let line = GOLDEN.lines().find(|l| l.starts_with(&format!("{w} 1 ")));
            assert!(line.is_some(), "golden.txt has no line for {w}");
        }
    }
}
