//! The session manifest: one ordered-JSON file per checkpoint directory
//! describing the configuration the session was started under.
//!
//! On `--resume`, the live configuration is rebuilt into a manifest and
//! diffed field-by-field against the stored one; any mismatch is a hard
//! [`StateError::Mismatch`] naming the offending fields, never a silent
//! continuation against the wrong targets (satellite bugfix). The
//! manifest fingerprint is also embedded in every worker checkpoint
//! header, binding checkpoints to their session.

use crate::codec::Fingerprint;
use crate::error::StateError;
use crate::json::{self, Value};

/// Manifest schema identifier.
pub const MANIFEST_SCHEMA: &str = "xmap-checkpoint/v1";

/// Scan-session identity: every knob that changes which probes a scan
/// sends or how results are interpreted. `every` (checkpoint cadence) is
/// deliberately *not* identity — resuming with a different cadence is
/// safe and allowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Parallel worker count (changes shard interleaving).
    pub workers: u64,
    /// Scan seed (permutation + host-bit derivation).
    pub seed: u64,
    /// Simulated-world seed (netsim runs only; 0 for live scans).
    pub world_seed: u64,
    /// Outer shard index.
    pub shard: u64,
    /// Outer shard count.
    pub shards: u64,
    /// Permutation backend name (`cyclic` / `feistel` / `sequential`).
    pub permutation: String,
    /// Probe module name, including the port for transport modules
    /// (e.g. `icmp6_echo`, `udp/443`).
    pub module: String,
    /// Per-shard target cap, if any.
    pub max_targets: Option<u64>,
    /// Rate limit in probes/sec, if any.
    pub rate_pps: Option<u64>,
    /// Transmission attempts per target.
    pub probes_per_target: u64,
    /// Retransmission timeout in ticks.
    pub rto_ticks: u64,
    /// Retry-queue bound.
    pub max_retry_backlog: u64,
    /// Whether silent targets are recorded.
    pub record_silent: bool,
    /// Target ranges, in scan order, as `prefix/len` strings.
    pub ranges: Vec<String>,
    /// Fingerprint of the blocklist trie.
    pub blocklist_fp: u64,
    /// Checkpoint cadence in slots (informational, not identity).
    pub every: u64,
}

impl Manifest {
    /// FNV-1a fingerprint over every identity field (not `every`).
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.push_str(MANIFEST_SCHEMA)
            .push_u64(self.workers)
            .push_u64(self.seed)
            .push_u64(self.world_seed)
            .push_u64(self.shard)
            .push_u64(self.shards)
            .push_str(&self.permutation)
            .push_str(&self.module)
            .push_u64(self.max_targets.map_or(u64::MAX, |v| v))
            .push_u64(self.max_targets.is_some() as u64)
            .push_u64(self.rate_pps.map_or(u64::MAX, |v| v))
            .push_u64(self.rate_pps.is_some() as u64)
            .push_u64(self.probes_per_target)
            .push_u64(self.rto_ticks)
            .push_u64(self.max_retry_backlog)
            // Retired slot (a rate-controller flag, always off now): kept
            // so sessions written before its removal keep their identity.
            .push_u64(0)
            .push_u64(self.record_silent as u64)
            .push_u64(self.ranges.len() as u64);
        for r in &self.ranges {
            fp.push_str(r);
        }
        fp.push_u64(self.blocklist_fp);
        fp.finish()
    }

    /// Field-by-field comparison; returns one human-readable line per
    /// mismatched identity field (empty when resumable).
    pub fn diff(&self, stored: &Manifest) -> Vec<String> {
        fn fmt_opt(v: Option<u64>) -> String {
            v.map_or_else(|| "none".into(), |x| x.to_string())
        }
        let mut out = Vec::new();
        let mut field = |name: &str, live: String, old: String| {
            if live != old {
                out.push(format!(
                    "{name}: checkpoint has {old}, current run has {live}"
                ));
            }
        };
        field(
            "workers",
            self.workers.to_string(),
            stored.workers.to_string(),
        );
        field("seed", self.seed.to_string(), stored.seed.to_string());
        field(
            "world_seed",
            self.world_seed.to_string(),
            stored.world_seed.to_string(),
        );
        field("shard", self.shard.to_string(), stored.shard.to_string());
        field("shards", self.shards.to_string(), stored.shards.to_string());
        field(
            "permutation",
            self.permutation.clone(),
            stored.permutation.clone(),
        );
        field("module", self.module.clone(), stored.module.clone());
        field(
            "max_targets",
            fmt_opt(self.max_targets),
            fmt_opt(stored.max_targets),
        );
        field("rate_pps", fmt_opt(self.rate_pps), fmt_opt(stored.rate_pps));
        field(
            "probes_per_target",
            self.probes_per_target.to_string(),
            stored.probes_per_target.to_string(),
        );
        field(
            "rto_ticks",
            self.rto_ticks.to_string(),
            stored.rto_ticks.to_string(),
        );
        field(
            "max_retry_backlog",
            self.max_retry_backlog.to_string(),
            stored.max_retry_backlog.to_string(),
        );
        field(
            "record_silent",
            self.record_silent.to_string(),
            stored.record_silent.to_string(),
        );
        field(
            "ranges",
            format!("[{}]", self.ranges.join(", ")),
            format!("[{}]", stored.ranges.join(", ")),
        );
        field(
            "blocklist",
            format!("{:#018x}", self.blocklist_fp),
            format!("{:#018x}", stored.blocklist_fp),
        );
        out
    }

    /// Serialises the manifest as ordered JSON (one field per line, so
    /// diffs and `scripts/check_checkpoint_schema.py` stay readable).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": ");
        json::push_json_string(&mut out, MANIFEST_SCHEMA);
        out.push_str(",\n  \"kind\": \"manifest\"");
        out.push_str(&format!(",\n  \"workers\": {}", self.workers));
        out.push_str(&format!(",\n  \"seed\": {}", self.seed));
        out.push_str(&format!(",\n  \"world_seed\": {}", self.world_seed));
        out.push_str(&format!(",\n  \"shard\": {}", self.shard));
        out.push_str(&format!(",\n  \"shards\": {}", self.shards));
        out.push_str(",\n  \"permutation\": ");
        json::push_json_string(&mut out, &self.permutation);
        out.push_str(",\n  \"module\": ");
        json::push_json_string(&mut out, &self.module);
        match self.max_targets {
            Some(v) => out.push_str(&format!(",\n  \"max_targets\": {v}")),
            None => out.push_str(",\n  \"max_targets\": null"),
        }
        match self.rate_pps {
            Some(v) => out.push_str(&format!(",\n  \"rate_pps\": {v}")),
            None => out.push_str(",\n  \"rate_pps\": null"),
        }
        out.push_str(&format!(
            ",\n  \"probes_per_target\": {}",
            self.probes_per_target
        ));
        out.push_str(&format!(",\n  \"rto_ticks\": {}", self.rto_ticks));
        out.push_str(&format!(
            ",\n  \"max_retry_backlog\": {}",
            self.max_retry_backlog
        ));
        out.push_str(&format!(",\n  \"record_silent\": {}", self.record_silent));
        out.push_str(",\n  \"ranges\": [");
        for (i, r) in self.ranges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::push_json_string(&mut out, r);
        }
        out.push(']');
        out.push_str(&format!(
            ",\n  \"blocklist_fp\": \"{:#018x}\"",
            self.blocklist_fp
        ));
        out.push_str(&format!(",\n  \"every\": {}", self.every));
        out.push_str(&format!(
            ",\n  \"fingerprint\": \"{:#018x}\"",
            self.fingerprint()
        ));
        out.push_str("\n}\n");
        out
    }

    /// Parses a manifest previously written by [`Manifest::to_json`],
    /// verifying the schema and the self-fingerprint (a hand-edited
    /// manifest that no longer matches its fingerprint is rejected).
    pub fn from_json(text: &str) -> Result<Manifest, StateError> {
        let what = "session manifest";
        let v = json::parse(text, what)?;
        let schema = v.req_str("schema", what)?;
        if schema != MANIFEST_SCHEMA {
            return Err(StateError::Version(format!(
                "{what}: found `{schema}`, this build supports `{MANIFEST_SCHEMA}`"
            )));
        }
        let opt_u64 = |key: &str| -> Result<Option<u64>, StateError> {
            match v.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(Value::U64(x)) => Ok(Some(*x)),
                Some(_) => Err(StateError::Corrupt(format!(
                    "{what}: field `{key}` must be an integer or null"
                ))),
            }
        };
        let req_bool = |key: &str| -> Result<bool, StateError> {
            v.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| StateError::Corrupt(format!("{what}: missing bool field `{key}`")))
        };
        let ranges = v
            .get("ranges")
            .and_then(Value::as_arr)
            .ok_or_else(|| StateError::Corrupt(format!("{what}: missing `ranges` array")))?
            .iter()
            .map(|r| {
                r.as_str().map(str::to_owned).ok_or_else(|| {
                    StateError::Corrupt(format!("{what}: `ranges` must hold strings"))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let m = Manifest {
            workers: v.req_u64("workers", what)?,
            seed: v.req_u64("seed", what)?,
            world_seed: v.req_u64("world_seed", what)?,
            shard: v.req_u64("shard", what)?,
            shards: v.req_u64("shards", what)?,
            permutation: v.req_str("permutation", what)?,
            module: v.req_str("module", what)?,
            max_targets: opt_u64("max_targets")?,
            rate_pps: opt_u64("rate_pps")?,
            probes_per_target: v.req_u64("probes_per_target", what)?,
            rto_ticks: v.req_u64("rto_ticks", what)?,
            max_retry_backlog: v.req_u64("max_retry_backlog", what)?,
            record_silent: req_bool("record_silent")?,
            ranges,
            blocklist_fp: crate::checkpoint::parse_fp(&v.req_str("blocklist_fp", what)?, what)?,
            every: v.req_u64("every", what)?,
        };
        let stored_fp = crate::checkpoint::parse_fp(&v.req_str("fingerprint", what)?, what)?;
        if stored_fp != m.fingerprint() {
            return Err(StateError::Corrupt(format!(
                "{what}: stored fingerprint {stored_fp:#018x} does not match recomputed \
                 {:#018x} (manifest was edited after the session started)",
                m.fingerprint()
            )));
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            workers: 4,
            seed: u64::MAX - 1,
            world_seed: 0xDA7A_5EED,
            shard: 0,
            shards: 1,
            permutation: "cyclic".into(),
            module: "icmp6_echo".into(),
            max_targets: Some(4096),
            rate_pps: None,
            probes_per_target: 3,
            rto_ticks: 8,
            max_retry_backlog: 4096,
            record_silent: true,
            ranges: vec!["2001:db8::/32".into(), "2620:fe::/48".into()],
            blocklist_fp: 0x1234_5678_9abc_def0,
            every: 1024,
        }
    }

    #[test]
    fn json_roundtrip_is_identity() {
        let m = sample();
        let parsed = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.fingerprint(), m.fingerprint());
    }

    #[test]
    fn diff_reports_each_field() {
        let a = sample();
        let mut b = sample();
        b.seed = 7;
        b.module = "udp/443".into();
        b.ranges.pop();
        let d = a.diff(&b);
        assert_eq!(d.len(), 3);
        assert!(d.iter().any(|l| l.starts_with("seed:")));
        assert!(d.iter().any(|l| l.starts_with("module:")));
        assert!(d.iter().any(|l| l.starts_with("ranges:")));
        assert!(a.diff(&sample()).is_empty());
    }

    #[test]
    fn cadence_is_not_identity() {
        let a = sample();
        let mut b = sample();
        b.every = 64;
        assert!(a.diff(&b).is_empty());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// `sample()` as a build with the rate-controller flag wrote it (key
    /// order and values verbatim, line breaks folded), flag off and on.
    const LEGACY_OFF: &str = r#"{"schema": "xmap-checkpoint/v1", "kind": "manifest",
  "workers": 4, "seed": 18446744073709551614, "world_seed": 3665452781, "shard": 0,
  "shards": 1, "permutation": "cyclic", "module": "icmp6_echo", "max_targets": 4096,
  "rate_pps": null, "probes_per_target": 3, "rto_ticks": 8, "max_retry_backlog": 4096,
  "adaptive": false, "record_silent": true, "ranges": ["2001:db8::/32", "2620:fe::/48"],
  "blocklist_fp": "0x123456789abcdef0", "every": 1024, "fingerprint": "0x507f57c8c674a93a"}"#;
    const LEGACY_ON: &str = r#"{"schema": "xmap-checkpoint/v1", "kind": "manifest",
  "workers": 4, "seed": 18446744073709551614, "world_seed": 3665452781, "shard": 0,
  "shards": 1, "permutation": "cyclic", "module": "icmp6_echo", "max_targets": 4096,
  "rate_pps": null, "probes_per_target": 3, "rto_ticks": 8, "max_retry_backlog": 4096,
  "adaptive": true, "record_silent": true, "ranges": ["2001:db8::/32", "2620:fe::/48"],
  "blocklist_fp": "0x123456789abcdef0", "every": 1024, "fingerprint": "0x5c8887891933d529"}"#;

    #[test]
    fn legacy_manifests_keep_identity_or_are_refused() {
        let old = Manifest::from_json(LEGACY_OFF).unwrap();
        assert_eq!(old.fingerprint(), 0x507f_57c8_c674_a93a);
        assert!(sample().diff(&old).is_empty());
        // A session that ran with the controller on cannot resume into a
        // build without it: the stored fingerprint no longer recomputes.
        let err = Manifest::from_json(LEGACY_ON).unwrap_err();
        assert!(matches!(err, StateError::Corrupt(_)), "{err}");
    }

    #[test]
    fn edited_manifest_is_rejected() {
        let m = sample();
        let tampered = m
            .to_json()
            .replace("\"seed\": 18446744073709551614", "\"seed\": 9");
        let err = Manifest::from_json(&tampered).unwrap_err();
        assert!(matches!(err, StateError::Corrupt(_)));
    }
}
