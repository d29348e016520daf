//! The client side of the wire: one blocking connection, reply
//! parsing through `divr_service::json`, and the `{"op":"stats"}`
//! counters with their before/after arithmetic.

use divr_service::json::{self, Value};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One answer as the wire carries it: the exact objective value as a
/// `num/den` pair and the chosen universe indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    pub num: i128,
    pub den: i128,
    pub indices: Vec<usize>,
}

/// One closed-loop connection. The reply buffer is reused.
pub struct Conn {
    stream: TcpStream,
    reply: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Longer than any frame in any workload; a daemon that stops
        // answering fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            reply: Vec::new(),
        })
    }

    /// Writes one already-encoded frame (prefix included).
    pub fn send(&mut self, wire: &[u8]) -> io::Result<()> {
        self.stream.write_all(wire)
    }

    /// Blocks for one reply frame and returns its payload.
    pub fn recv(&mut self) -> io::Result<&[u8]> {
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        self.reply.resize(u32::from_be_bytes(len) as usize, 0);
        self.stream.read_exact(&mut self.reply)?;
        Ok(&self.reply)
    }

    /// Send, wait, parse.
    pub fn call(&mut self, wire: &[u8]) -> io::Result<Value> {
        self.send(wire)?;
        parse(self.recv()?)
    }
}

pub fn parse(payload: &[u8]) -> io::Result<Value> {
    let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
    let text = std::str::from_utf8(payload).map_err(|e| bad(e.to_string()))?;
    json::parse(text).map_err(|e| bad(e.to_string()))
}

pub fn is_ok(reply: &Value) -> bool {
    reply.get("ok").and_then(Value::as_bool) == Some(true)
}

fn int128(v: &Value) -> Option<i128> {
    // Components past i64 travel as decimal strings.
    match v {
        Value::Int(i) => Some(i128::from(*i)),
        Value::Str(s) => s.parse().ok(),
        _ => None,
    }
}

/// The `answers` of an ok `serve`/`query` reply; `None` if the frame
/// failed or any single answer is not an ok answer.
pub fn answers(reply: &Value) -> Option<Vec<Answer>> {
    if !is_ok(reply) {
        return None;
    }
    reply
        .get("answers")?
        .as_array()?
        .iter()
        .map(|a| {
            if !is_ok(a) {
                return None;
            }
            let value = a.get("value")?.as_array()?;
            let indices = a.get("indices")?.as_array()?;
            Some(Answer {
                num: int128(value.first()?)?,
                den: int128(value.get(1)?)?,
                indices: indices
                    .iter()
                    .map(|i| i.as_i64().and_then(|i| usize::try_from(i).ok()))
                    .collect::<Option<_>>()?,
            })
        })
        .collect()
}

/// The daemon's counters, flattened. Absent members read as 0 so the
/// struct survives a stats frame that grows or loses a section.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonStats {
    pub frames: u64,
    pub rejected: u64,
    pub degraded: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub resident_bytes: u64,
    pub wal_records: u64,
    pub wal_io_errors: u64,
    pub replayed_records: u64,
    pub recovered_entries: u64,
}

impl DaemonStats {
    pub fn of(reply: &Value) -> DaemonStats {
        let at = |path: &[&str]| -> u64 {
            let mut v = reply.get("stats");
            for key in path {
                v = v.and_then(|v| v.get(key));
            }
            v.and_then(Value::as_i64)
                .and_then(|i| u64::try_from(i).ok())
                .unwrap_or(0)
        };
        DaemonStats {
            frames: at(&["frames"]),
            rejected: at(&["admission", "rejected_qps"])
                + at(&["admission", "rejected_cache"])
                + at(&["admission", "rejected_queue"]),
            degraded: at(&["admission", "degraded"]),
            hits: at(&["cache", "hits"]),
            misses: at(&["cache", "misses"]),
            evictions: at(&["cache", "evictions"]),
            resident_bytes: at(&["cache", "bytes"]),
            wal_records: at(&["durability", "wal_records"]),
            wal_io_errors: at(&["durability", "wal_io_errors"]),
            replayed_records: at(&["durability", "wal_records_replayed"]),
            recovered_entries: at(&["durability", "recovered_entries"]),
        }
    }

    /// What happened between two snapshots. Counters subtract
    /// (saturating: a restarted daemon reads as 0, not as an
    /// underflow); the `resident_bytes` gauge and the
    /// per-lifetime recovery figures keep the later reading.
    pub fn since(&self, before: &DaemonStats) -> DaemonStats {
        DaemonStats {
            frames: self.frames.saturating_sub(before.frames),
            rejected: self.rejected.saturating_sub(before.rejected),
            degraded: self.degraded.saturating_sub(before.degraded),
            hits: self.hits.saturating_sub(before.hits),
            misses: self.misses.saturating_sub(before.misses),
            evictions: self.evictions.saturating_sub(before.evictions),
            wal_records: self.wal_records.saturating_sub(before.wal_records),
            wal_io_errors: self.wal_io_errors.saturating_sub(before.wal_io_errors),
            ..*self
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        match self.hits + self.misses {
            0 => 0.0,
            lookups => self.hits as f64 / lookups as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_reply(frames: i64, hits: i64, misses: i64, entries: i64, wal: i64) -> Value {
        json::parse(&format!(
            r#"{{"ok":true,"stats":{{"frames":{frames},
                "admission":{{"admitted":4,"rejected_qps":1,"rejected_cache":2,"rejected_queue":3,"degraded":0}},
                "cache":{{"hits":{hits},"misses":{misses},"evictions":0,"entries":{entries},"bytes":1024}},
                "durability":{{"enabled":true,"wal_records":{wal},"wal_records_replayed":9,"recovered_entries":5}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn stats_flatten_and_subtract() {
        let before = DaemonStats::of(&stats_reply(10, 6, 2, 8, 100));
        let after = DaemonStats::of(&stats_reply(110, 96, 2, 9, 130));
        assert_eq!(before.rejected, 6);
        let d = after.since(&before);
        assert_eq!(
            (d.frames, d.hits, d.misses, d.wal_records),
            (100, 90, 0, 30)
        );
        // Gauges and recovery figures are readings, not differences.
        assert_eq!(d.resident_bytes, 1024);
        assert_eq!((d.replayed_records, d.recovered_entries), (9, 5));
        assert_eq!(d.rejected, 0);
        assert_eq!(d.hit_ratio(), 1.0);
        assert_eq!(DaemonStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn a_restarted_daemon_does_not_underflow() {
        let before = DaemonStats::of(&stats_reply(500, 400, 9, 8, 100));
        let after = DaemonStats::of(&stats_reply(3, 2, 0, 8, 0));
        assert_eq!(after.since(&before).frames, 0);
    }

    #[test]
    fn a_stats_frame_without_durability_reads_zero() {
        let reply =
            json::parse(r#"{"ok":true,"stats":{"frames":1,"durability":{"enabled":false}}}"#)
                .unwrap();
        assert_eq!(DaemonStats::of(&reply).wal_records, 0);
    }

    #[test]
    fn answers_decode_exact_values() {
        let reply = json::parse(
            r#"{"ok":true,"degraded":false,"answers":[
                {"ok":true,"value":[7,2],"indices":[0,3]},
                {"ok":true,"value":["170141183460469231731687303715884105727",1],"indices":[]}]}"#,
        )
        .unwrap();
        let got = answers(&reply).unwrap();
        assert_eq!(
            got[0],
            Answer {
                num: 7,
                den: 2,
                indices: vec![0, 3]
            }
        );
        assert_eq!(got[1].num, i128::MAX);
        // One failed answer, or a failed frame, is not a set of answers.
        let partial =
            json::parse(r#"{"ok":true,"answers":[{"ok":false,"code":422,"kind":"infeasible_k"}]}"#)
                .unwrap();
        assert_eq!(answers(&partial), None);
        let refused = json::parse(r#"{"ok":false,"code":429,"kind":"qps_exceeded"}"#).unwrap();
        assert_eq!(answers(&refused), None);
    }
}
