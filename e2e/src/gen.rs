//! Seeded input generation and frame encoding. The generator takes
//! the seed; the daemon only ever sees the bytes built here. Frames
//! are encoded once, before the timed window, and only their
//! fixed-width tenant field is patched in place afterwards.

/// The three objectives, by wire name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    MaxSum,
    MaxMin,
    Mono,
}

impl Objective {
    pub fn wire(self) -> &'static str {
        match self {
            Objective::MaxSum => "max_sum",
            Objective::MaxMin => "max_min",
            Objective::Mono => "mono",
        }
    }
}

/// One `(objective, k)` request of a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    pub objective: Objective,
    pub k: usize,
}

/// A 2-attribute integer tuple `[position, score]`: the distance is
/// numeric on attribute 0, the relevance reads attribute 1.
pub type Row = [i64; 2];

/// splitmix64 — small, seedable, and good enough for workload shapes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Derives an independent stream seed from a run seed and a label.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// `n` rows with strictly increasing positions (random gaps below
/// 1000, so rows are distinct) and scores in `0..1000`.
pub fn rows(seed: u64, n: usize) -> Vec<Row> {
    let mut rng = Rng::new(seed);
    let mut position = 0i64;
    (0..n)
        .map(|_| {
            position += 1 + rng.below(999) as i64;
            [position, rng.below(1000) as i64]
        })
        .collect()
}

const RELEVANCE: &str = r#"{"kind":"attribute","attr":1,"default":[0,1]}"#;
const DISTANCE: &str = r#"{"kind":"numeric","attr":0}"#;
const LAMBDA: &str = "[1,2]";
const TENANT_DIGITS: usize = 10;

/// One encoded frame: the 4-byte big-endian length prefix, then the
/// JSON payload. The tenant is a `t` plus ten decimal digits at a
/// known offset, so rotating tenants costs ten byte stores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    bytes: Vec<u8>,
    tenant_at: Option<usize>,
}

impl Frame {
    fn new(payload: String) -> Frame {
        let tenant_at = payload.find("\"tenant\":\"t").map(|at| at + 4 + 11);
        let mut bytes = Vec::with_capacity(4 + payload.len());
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(payload.as_bytes());
        Frame { bytes, tenant_at }
    }

    /// Overwrites the tenant digits (frames without a tenant ignore it).
    pub fn set_tenant(&mut self, mut id: u64) {
        let Some(at) = self.tenant_at else { return };
        for slot in self.bytes[at..at + TENANT_DIGITS].iter_mut().rev() {
            *slot = b'0' + (id % 10) as u8;
            id /= 10;
        }
    }

    /// Length prefix and payload, as written to the socket.
    pub fn wire(&self) -> &[u8] {
        &self.bytes
    }

    /// The JSON payload alone.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[4..]
    }
}

fn push_rows(out: &mut String, rows: &[Row]) {
    use std::fmt::Write as _;
    out.push('[');
    for (i, [a, b]) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{a},{b}]");
    }
    out.push(']');
}

fn push_requests(out: &mut String, requests: &[Request]) {
    use std::fmt::Write as _;
    out.push('[');
    for (i, r) in requests.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"objective\":\"{}\",\"k\":{}}}",
            r.objective.wire(),
            r.k
        );
    }
    out.push(']');
}

/// A `serve` frame shipping the whole universe inline; `coreset`
/// switches it to coreset mode with that budget.
pub fn serve_frame(rows: &[Row], coreset: Option<usize>, requests: &[Request]) -> Frame {
    let mut out = String::with_capacity(64 + rows.len() * 12);
    out.push_str(r#"{"op":"serve","tenant":"t0000000000","universe":{"tuples":"#);
    push_rows(&mut out, rows);
    out.push_str(&format!(
        r#","relevance":{RELEVANCE},"distance":{DISTANCE},"lambda":{LAMBDA}"#
    ));
    if let Some(budget) = coreset {
        out.push_str(&format!(r#","coreset":{{"budget":{budget}}}"#));
    }
    out.push_str(r#"},"requests":"#);
    push_requests(&mut out, requests);
    out.push('}');
    Frame::new(out)
}

/// The single relation every `durable_mixed` database holds.
pub const RELATION: &str = "R";

/// Two tableau-equivalent spellings of "all of R": the front door
/// keys both to one prepared universe.
pub const SPELLINGS: [&str; 2] = ["Q(x, y) :- R(x, y)", "Q(a, b) :- R(a, b), R(a, b)"];

/// A `query` frame shipping the database inline.
pub fn query_frame(rows: &[Row], query: &str, requests: &[Request]) -> Frame {
    let mut out = String::with_capacity(256 + rows.len() * 12);
    out.push_str(&format!(
        r#"{{"op":"query","tenant":"t0000000000","query":"{query}","database":{{"relations":[{{"name":"{RELATION}","attrs":["x","y"],"rows":"#
    ));
    push_rows(&mut out, rows);
    out.push_str(&format!(
        r#"}}]}},"relevance":{RELEVANCE},"distance":{DISTANCE},"lambda":{LAMBDA},"requests":"#
    ));
    push_requests(&mut out, requests);
    out.push('}');
    Frame::new(out)
}

/// A `mutate` frame against a registered database (`action` is
/// `insert` or `remove`).
pub fn mutate_frame(database: &str, action: &str, row: Row) -> Frame {
    Frame::new(format!(
        r#"{{"op":"mutate","tenant":"t0000000000","database":"{database}","relation":"{RELATION}","action":"{action}","tuple":[{},{}]}}"#,
        row[0], row[1]
    ))
}

/// A frame that is just `{"op": <op>}` — `ping`, `stats`, `checkpoint`.
pub fn op_frame(op: &str) -> Frame {
    Frame::new(format!(r#"{{"op":"{op}"}}"#))
}

#[cfg(test)]
mod tests {
    use super::*;

    const REQS: [Request; 2] = [
        Request {
            objective: Objective::MaxSum,
            k: 5,
        },
        Request {
            objective: Objective::MaxMin,
            k: 5,
        },
    ];

    #[test]
    fn same_seed_gives_byte_identical_frames() {
        let a = serve_frame(&rows(42, 220), None, &REQS);
        let b = serve_frame(&rows(42, 220), None, &REQS);
        assert_eq!(a, b);
        let q1 = query_frame(&rows(42, 50), SPELLINGS[0], &REQS);
        let q2 = query_frame(&rows(42, 50), SPELLINGS[0], &REQS);
        assert_eq!(q1, q2);
    }

    #[test]
    fn different_seeds_give_different_universes() {
        assert_ne!(rows(1, 220), rows(2, 220));
        assert_ne!(sub_seed(9, 1), sub_seed(9, 2));
        // Positions strictly increase, so rows never repeat.
        assert!(rows(7, 1000).windows(2).all(|w| w[0][0] < w[1][0]));
    }

    #[test]
    fn frames_are_valid_protocol_json() {
        use divr_service::json::{self, Value};
        for frame in [
            serve_frame(&rows(3, 10), Some(4), &REQS),
            query_frame(&rows(3, 10), SPELLINGS[1], &REQS),
            mutate_frame("db-0", "insert", [1, 2]),
            op_frame("ping"),
        ] {
            let len = u32::from_be_bytes(frame.wire()[..4].try_into().unwrap()) as usize;
            assert_eq!(len, frame.payload().len());
            let doc = json::parse(std::str::from_utf8(frame.payload()).unwrap()).unwrap();
            assert!(doc.get("op").and_then(Value::as_str).is_some());
        }
        let doc = json::parse(
            std::str::from_utf8(serve_frame(&rows(3, 10), Some(4), &REQS).payload()).unwrap(),
        )
        .unwrap();
        let universe = doc.get("universe").unwrap();
        assert_eq!(
            universe
                .get("tuples")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            10
        );
        assert_eq!(
            universe
                .get("coreset")
                .and_then(|c| c.get("budget"))
                .and_then(Value::as_i64),
            Some(4)
        );
    }

    #[test]
    fn tenant_patch_rewrites_only_the_digits() {
        use divr_service::json::{self, Value};
        let mut frame = serve_frame(&rows(3, 4), None, &REQS);
        let before = frame.wire().len();
        frame.set_tenant(1_234_567);
        assert_eq!(frame.wire().len(), before);
        let doc = json::parse(std::str::from_utf8(frame.payload()).unwrap()).unwrap();
        assert_eq!(
            doc.get("tenant").and_then(Value::as_str),
            Some("t0001234567")
        );
        // Tenant-less frames are left alone.
        let mut ping = op_frame("ping");
        ping.set_tenant(5);
        assert_eq!(ping, op_frame("ping"));
    }
}
