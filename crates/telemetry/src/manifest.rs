//! Run manifests: the provenance header stamped into every artifact.
//!
//! A [`RunManifest`] records what produced an artifact — seed, a digest of
//! the strategy/trainer configuration, topology size, git revision, and
//! build profile — so any two telemetry JSONLs or Chrome traces are
//! self-describing and `het-gmp inspect diff` can refuse to silently
//! compare apples to oranges. Writers stamp it as the first JSONL record
//! (`{"event":"manifest","manifest":{...}}`) and under `otherData.manifest`
//! in Chrome traces; a JSON document may carry it as a top-level
//! `"manifest"` object.

use crate::json::Json;

/// Version of the manifest header schema. Readers warn on unknown
/// versions instead of failing, so old tools survive new fields.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// Provenance header for one run's artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// Header schema version ([`MANIFEST_SCHEMA_VERSION`] when written by
    /// this build).
    pub schema: u64,
    /// RNG seed the run was driven by.
    pub seed: u64,
    /// FNV-1a digest (16 hex chars) of the strategy + trainer
    /// configuration summary; equal digests mean comparable runs.
    pub config_digest: String,
    /// Number of embedding workers in the simulated topology.
    pub workers: u64,
    /// Git revision the binary was built from ("unknown" outside git).
    pub git_rev: String,
    /// Whether the tree differed from `git_rev` when the stamp was taken;
    /// `None` outside git and in artifacts written before the field existed.
    pub git_dirty: Option<bool>,
    /// Cargo build profile: "release" or "debug".
    pub build_profile: String,
    /// GEMM kernel tier the host dispatched to (`"avx512f"`, `"avx2"`,
    /// `"portable"`): every tier computes the same bits at a different
    /// speed, so a wall-clock number is only comparable within one. Stamped
    /// by whoever runs dense math ([`RunManifest::new`] leaves it `None` —
    /// this crate does not know the kernels); `None` too in artifacts
    /// written before the field existed.
    pub gemm_isa: Option<String>,
}

impl RunManifest {
    /// Manifest for the current build: git rev and profile are stamped at
    /// compile time, the run parameters come from the caller.
    pub fn new(seed: u64, config_digest: impl Into<String>, workers: usize) -> Self {
        Self {
            schema: MANIFEST_SCHEMA_VERSION,
            seed,
            config_digest: config_digest.into(),
            workers: workers as u64,
            git_rev: git_rev().to_string(),
            git_dirty: git_dirty(),
            build_profile: build_profile().to_string(),
            gemm_isa: None,
        }
    }

    /// FNV-1a 64-bit digest of a canonical config rendering, as 16 hex
    /// characters. Callers feed it a `Debug`/`format!` summary of the
    /// strategy + trainer configuration; any field change changes the
    /// digest.
    pub fn digest_of(text: &str) -> String {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        for byte in text.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(PRIME);
        }
        format!("{hash:016x}")
    }

    /// The manifest as a JSON object (the artifact header payload).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::U64(self.schema)),
            ("seed", Json::U64(self.seed)),
            ("config_digest", Json::from(self.config_digest.as_str())),
            ("workers", Json::U64(self.workers)),
            ("git_rev", Json::from(self.git_rev.as_str())),
            ("git_dirty", self.git_dirty.map_or(Json::Null, Json::Bool)),
            ("build_profile", Json::from(self.build_profile.as_str())),
            (
                "gemm_isa",
                self.gemm_isa.as_deref().map_or(Json::Null, Json::from),
            ),
        ])
    }

    /// The manifest as a full JSONL record:
    /// `{"event":"manifest","manifest":{...}}` — the first line of every
    /// telemetry JSONL.
    pub fn to_record(&self) -> Json {
        Json::obj([
            ("event", Json::from("manifest")),
            ("manifest", self.to_json()),
        ])
    }

    /// Reads a manifest back from its JSON object form (the payload
    /// produced by [`RunManifest::to_json`]). `None` when required fields
    /// are missing or mistyped.
    pub fn from_json(v: &Json) -> Option<Self> {
        Some(Self {
            schema: v.get("schema")?.as_u64()?,
            seed: v.get("seed")?.as_u64()?,
            config_digest: v.get("config_digest")?.as_str()?.to_string(),
            workers: v.get("workers")?.as_u64()?,
            git_rev: v.get("git_rev")?.as_str()?.to_string(),
            git_dirty: v.get("git_dirty").and_then(Json::as_bool),
            build_profile: v.get("build_profile")?.as_str()?.to_string(),
            gemm_isa: v.get("gemm_isa").and_then(Json::as_str).map(str::to_string),
        })
    }

    /// Comparability check: the fields that must match for two runs to be
    /// meaningfully diffed. Returns one human-readable line per mismatch.
    /// `git_rev` and `git_dirty` are deliberately excluded — comparing two
    /// revisions is the whole point of a regression diff — but mixing build
    /// profiles, workloads or (when both sides recorded one) GEMM kernel
    /// tiers is flagged.
    pub fn mismatches(&self, other: &Self) -> Vec<String> {
        let mut out = Vec::new();
        let mut field = |name: &str, a: &dyn std::fmt::Display, b: &dyn std::fmt::Display| {
            let (a, b) = (a.to_string(), b.to_string());
            if a != b {
                out.push(format!("{name}: {a} vs {b}"));
            }
        };
        field("schema", &self.schema, &other.schema);
        field("seed", &self.seed, &other.seed);
        field("config_digest", &self.config_digest, &other.config_digest);
        field("workers", &self.workers, &other.workers);
        field("build_profile", &self.build_profile, &other.build_profile);
        if let (Some(a), Some(b)) = (&self.gemm_isa, &other.gemm_isa) {
            field("gemm_isa", a, b);
        }
        out
    }
}

/// Git revision this binary was built from (stamped by `build.rs`).
pub fn git_rev() -> &'static str {
    option_env!("HETGMP_GIT_REV").unwrap_or("unknown")
}

/// Whether the tree differed from [`git_rev`] when `build.rs` took the
/// stamp (it retakes it when `HEAD` or the ref it names moves); `None`
/// outside a git checkout.
pub fn git_dirty() -> Option<bool> {
    match option_env!("HETGMP_GIT_DIRTY") {
        Some("true") => Some(true),
        Some("false") => Some(false),
        _ => None,
    }
}

/// Cargo build profile of this binary.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new(42, RunManifest::digest_of("cfg"), 4);
        m.gemm_isa = Some("avx2".to_string());
        m
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let m = sample();
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        // And via an actual render/parse cycle, as artifacts do it.
        let parsed = Json::parse(&m.to_record().render()).unwrap();
        assert_eq!(parsed.get("event").unwrap().as_str(), Some("manifest"));
        let back = RunManifest::from_json(parsed.get("manifest").unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(RunManifest::digest_of("a"), RunManifest::digest_of("a"));
        assert_ne!(RunManifest::digest_of("a"), RunManifest::digest_of("b"));
        assert_eq!(RunManifest::digest_of("x").len(), 16);
    }

    #[test]
    fn mismatches_flag_comparability_fields_only() {
        let a = sample();
        let mut b = sample();
        assert!(a.mismatches(&b).is_empty());
        b.seed = 43;
        b.git_rev = "feedfeedfeed".to_string();
        b.git_dirty = Some(a.git_dirty != Some(true));
        let lines = a.mismatches(&b);
        assert_eq!(
            lines.len(),
            1,
            "git_rev/git_dirty must not be flagged: {lines:?}"
        );
        assert!(lines[0].starts_with("seed:"), "{lines:?}");
    }

    #[test]
    fn headers_without_git_dirty_still_load() {
        let mut old = sample().to_json();
        if let Json::Obj(members) = &mut old {
            members.retain(|(k, _)| k != "git_dirty");
        }
        let back = RunManifest::from_json(&old).expect("pre-git_dirty artifact loads");
        assert_eq!(back.git_dirty, None);
        assert_eq!(back.git_rev, sample().git_rev);
    }

    #[test]
    fn headers_without_gemm_isa_still_load() {
        let mut old = sample().to_json();
        if let Json::Obj(members) = &mut old {
            members.retain(|(k, _)| k != "gemm_isa");
        }
        let back = RunManifest::from_json(&old).expect("pre-gemm_isa artifact loads");
        assert_eq!(back.gemm_isa, None);
        // Unknown on one side is not a disagreement; two known tiers are,
        // as one warning line.
        assert!(sample().mismatches(&back).is_empty());
        let mut other = sample();
        other.gemm_isa = Some("avx512f".to_string());
        assert_eq!(
            sample().mismatches(&other),
            vec!["gemm_isa: avx2 vs avx512f".to_string()]
        );
    }

    #[test]
    fn headers_with_the_retired_pipeline_depth_key_still_load() {
        // Artifacts written before the one-schedule trainer carry the key;
        // it is ignored on load and never reported as a mismatch.
        let mut old = sample().to_json();
        if let Json::Obj(members) = &mut old {
            members.push(("pipeline_depth".to_string(), Json::U64(2)));
        }
        let back = RunManifest::from_json(&old).expect("legacy artifact loads");
        assert_eq!(back, sample());
        assert!(sample().mismatches(&back).is_empty());
    }

    #[test]
    fn headers_with_the_retired_gemm_threads_key_still_load() {
        // Artifacts written while row-panel GEMM was a knob carry the key
        // (always, it was a required field); it is ignored on load and
        // never reported as a mismatch, whatever its value.
        let mut old = sample().to_json();
        if let Json::Obj(members) = &mut old {
            members.push(("gemm_threads".to_string(), Json::U64(4)));
        }
        let back = RunManifest::from_json(&old).expect("legacy artifact loads");
        assert_eq!(back, sample());
        assert!(sample().mismatches(&back).is_empty());
        assert!(sample().to_json().get("gemm_threads").is_none());
    }

    #[test]
    fn from_json_rejects_malformed_headers() {
        assert!(RunManifest::from_json(&Json::Null).is_none());
        let missing = Json::obj([("schema", Json::U64(1))]);
        assert!(RunManifest::from_json(&missing).is_none());
    }
}
