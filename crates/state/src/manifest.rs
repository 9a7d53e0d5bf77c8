//! The session manifest: one ordered-JSON file per checkpoint directory
//! describing the configuration the session was started under.
//!
//! On `--resume`, the live configuration is rebuilt into a manifest and
//! diffed field-by-field against the stored one; any mismatch is a hard
//! [`StateError::Mismatch`] naming the offending fields, never a silent
//! continuation against the wrong targets. The manifest fingerprint is
//! also embedded in every worker checkpoint header, binding checkpoints
//! to their session.
//!
//! The fields are listed once, in [`Manifest`]'s declaration below, each
//! with a `Format` that says how it hashes, prints and parses; the
//! fingerprint, the diff and both JSON directions walk that one list.

use crate::checkpoint::{check_schema, drift_line, parse_hex};
use crate::codec::Fingerprint;
use crate::error::StateError;
use crate::json::{self, Value};
use crate::SCHEMA;

/// How one manifest field's value hashes into the fingerprint, prints in
/// a diff line and in `manifest.json`, and parses back.
trait Format<T> {
    /// Whether the field is identity: hashed and diffed.
    const IDENTITY: bool = true;
    fn hash(v: &T, fp: &mut Fingerprint);
    fn show(v: &T) -> String;
    fn json(v: &T) -> String {
        Self::show(v)
    }
    fn read(v: &Value) -> Option<T>;
}

/// A decimal integer.
struct Int;
/// An integer or `null` (`none` in a diff).
struct Opt;
/// `true` / `false`.
struct Flag;
/// A string.
struct Text;
/// A list of strings.
struct List;
/// A fingerprint: `0x` and 16 hex digits, quoted in JSON.
struct Hex;
/// A decimal integer that is not identity: never hashed or diffed.
struct Cadence;

impl Format<u64> for Int {
    fn hash(v: &u64, fp: &mut Fingerprint) {
        fp.push_u64(*v);
    }
    fn show(v: &u64) -> String {
        v.to_string()
    }
    fn read(v: &Value) -> Option<u64> {
        v.as_u64()
    }
}

impl Format<u64> for Cadence {
    const IDENTITY: bool = false;
    fn hash(_: &u64, _: &mut Fingerprint) {}
    fn show(v: &u64) -> String {
        v.to_string()
    }
    fn read(v: &Value) -> Option<u64> {
        v.as_u64()
    }
}

impl Format<Option<u64>> for Opt {
    fn hash(v: &Option<u64>, fp: &mut Fingerprint) {
        fp.push_u64(v.unwrap_or(u64::MAX))
            .push_u64(v.is_some() as u64);
    }
    fn show(v: &Option<u64>) -> String {
        v.map_or_else(|| "none".into(), |x| x.to_string())
    }
    fn json(v: &Option<u64>) -> String {
        v.map_or_else(|| "null".into(), |x| x.to_string())
    }
    fn read(v: &Value) -> Option<Option<u64>> {
        match v {
            Value::Null => Some(None),
            other => other.as_u64().map(Some),
        }
    }
}

impl Format<bool> for Flag {
    fn hash(v: &bool, fp: &mut Fingerprint) {
        fp.push_u64(*v as u64);
    }
    fn show(v: &bool) -> String {
        v.to_string()
    }
    fn read(v: &Value) -> Option<bool> {
        v.as_bool()
    }
}

impl Format<String> for Text {
    fn hash(v: &String, fp: &mut Fingerprint) {
        fp.push_str(v);
    }
    fn show(v: &String) -> String {
        v.clone()
    }
    fn json(v: &String) -> String {
        let mut out = String::new();
        json::push_json_string(&mut out, v);
        out
    }
    fn read(v: &Value) -> Option<String> {
        v.as_str().map(str::to_owned)
    }
}

impl Format<Vec<String>> for List {
    fn hash(v: &Vec<String>, fp: &mut Fingerprint) {
        fp.push_u64(v.len() as u64);
        for s in v {
            fp.push_str(s);
        }
    }
    fn show(v: &Vec<String>) -> String {
        format!("[{}]", v.join(", "))
    }
    fn json(v: &Vec<String>) -> String {
        format!(
            "[{}]",
            v.iter().map(Text::json).collect::<Vec<_>>().join(", ")
        )
    }
    fn read(v: &Value) -> Option<Vec<String>> {
        v.as_arr()?.iter().map(Text::read).collect()
    }
}

impl Format<u64> for Hex {
    fn hash(v: &u64, fp: &mut Fingerprint) {
        fp.push_u64(*v);
    }
    fn show(v: &u64) -> String {
        format!("{v:#018x}")
    }
    fn json(v: &u64) -> String {
        format!("\"{v:#018x}\"")
    }
    fn read(v: &Value) -> Option<u64> {
        parse_hex(v.as_str()?, "").ok()
    }
}

/// Declares [`Manifest`] from its one field list and derives the four
/// views of it from the same list, in the same order.
macro_rules! manifest {
    (
        $(#[$doc:meta])*
        pub struct Manifest {
            $($(#[$fdoc:meta])* $name:ident: $ty:ty = $fmt:ident,)*
        }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct Manifest {
            $($(#[$fdoc])* pub $name: $ty,)*
        }

        impl Manifest {
            /// FNV-1a fingerprint over the schema and every identity field.
            pub fn fingerprint(&self) -> u64 {
                let mut fp = Fingerprint::new();
                fp.push_str(SCHEMA);
                $($fmt::hash(&self.$name, &mut fp);)*
                fp.finish()
            }

            /// Field-by-field comparison; returns one human-readable line
            /// per mismatched identity field (empty when resumable).
            pub fn diff(&self, stored: &Manifest) -> Vec<String> {
                let mut out = Vec::new();
                $(
                    let (live, old) = ($fmt::show(&self.$name), $fmt::show(&stored.$name));
                    if <$fmt as Format<$ty>>::IDENTITY && live != old {
                        out.push(drift_line(stringify!($name), &old, &live));
                    }
                )*
                out
            }

            /// Serialises the manifest as ordered JSON (one field per
            /// line, so diffs and `scripts/check_checkpoint_schema.py`
            /// stay readable).
            pub fn to_json(&self) -> String {
                let mut out = format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"kind\": \"manifest\"");
                $(out.push_str(&format!(
                    ",\n  \"{}\": {}",
                    stringify!($name),
                    $fmt::json(&self.$name)
                ));)*
                out.push_str(&format!(
                    ",\n  \"fingerprint\": \"{:#018x}\"\n}}\n",
                    self.fingerprint()
                ));
                out
            }

            /// Parses a manifest previously written by
            /// [`Manifest::to_json`], verifying the schema and the
            /// self-fingerprint (a hand-edited manifest that no longer
            /// matches its fingerprint is rejected).
            pub fn from_json(text: &str) -> Result<Manifest, StateError> {
                let what = "session manifest";
                let v = json::parse(text, what)?;
                check_schema(&v, what)?;
                let m = Manifest {
                    $($name: v.get(stringify!($name)).and_then($fmt::read).ok_or_else(|| {
                        StateError::Corrupt(format!(
                            "{what}: field `{}` is missing or malformed",
                            stringify!($name)
                        ))
                    })?,)*
                };
                let stored = parse_hex(&v.req_str("fingerprint", what)?, what)?;
                if stored != m.fingerprint() {
                    return Err(StateError::Corrupt(format!(
                        "{what}: stored fingerprint {stored:#018x} does not match recomputed \
                         {:#018x} (manifest was edited after the session started)",
                        m.fingerprint()
                    )));
                }
                Ok(m)
            }
        }
    };
}

manifest! {
    /// Scan-session identity: every knob that changes which probes a scan
    /// sends or how results are interpreted. `every` (checkpoint cadence)
    /// is deliberately *not* identity — resuming with a different cadence
    /// is safe and allowed.
    pub struct Manifest {
        /// Parallel worker count (changes shard interleaving).
        workers: u64 = Int,
        /// Scan seed (permutation + host-bit derivation).
        seed: u64 = Int,
        /// Simulated-world seed (netsim runs only; 0 for live scans).
        world_seed: u64 = Int,
        /// Outer shard index.
        shard: u64 = Int,
        /// Outer shard count.
        shards: u64 = Int,
        /// Permutation backend name (`cyclic` / `feistel` / `sequential`).
        permutation: String = Text,
        /// Probe module name, including the port for transport modules
        /// (e.g. `icmp6_echo`, `udp/443`).
        module: String = Text,
        /// Per-shard target cap, if any.
        max_targets: Option<u64> = Opt,
        /// Rate limit in probes/sec, if any.
        rate_pps: Option<u64> = Opt,
        /// Transmission attempts per target.
        probes_per_target: u64 = Int,
        /// Retransmission timeout in ticks.
        rto_ticks: u64 = Int,
        /// Whether silent targets are recorded.
        record_silent: bool = Flag,
        /// Target ranges, in scan order, as `prefix/len` strings.
        ranges: Vec<String> = List,
        /// Fingerprint of the blocklist trie.
        blocklist_fp: u64 = Hex,
        /// Checkpoint cadence in slots (informational, not identity).
        every: u64 = Cadence,
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
        assert!(d.contains(&format!(
            "seed: checkpoint has 7, current run has {}",
            u64::MAX - 1
        )));
        assert!(d.contains(&"module: checkpoint has udp/443, current run has icmp6_echo".into()));
        assert!(d.contains(
            &"ranges: checkpoint has [2001:db8::/32], current run has \
              [2001:db8::/32, 2620:fe::/48]"
                .into()
        ));
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
