//! The golden connection corpus: raw request streams under
//! `tests/fixtures/connection-corpus/`, each paired with the exact
//! reply bytes and hang-up behaviour the thread-per-connection front
//! produced before the two fronts shared one protocol handler. Every
//! stream is replayed through both fronts and must reproduce the
//! captured bytes. The fixtures are never regenerated: the cross-front
//! property in `crates/reactor/tests/framing_props.rs` compares one
//! handler with itself now, so this corpus is the independent check.
//!
//! A `.request` file is a script, one segment per line: `line TEXT`
//! (TEXT, then a newline), `text TEXT` (no newline), `hex HEX`, and
//! `repeat COUNT HEXBYTE`; `#` starts a comment. `cases.txt` lists each
//! case with the reply bytes the server writes before the client
//! half-closes, and whether the server then hangs up on its own
//! (`closes`) or waits for more requests (`open`).

#![cfg(target_os = "linux")]

use aware_data::census::CensusGenerator;
use aware_serve::reactor_front::bind_reactor;
use aware_serve::service::{Service, ServiceConfig};
use aware_serve::tcp::TcpServer;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/connection-corpus")
}

fn unhex(hex: &str) -> Vec<u8> {
    assert!(hex.len().is_multiple_of(2), "odd hex length: {hex}");
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex byte"))
        .collect()
}

/// The byte stream a `.request` script describes.
fn parse(script: &str) -> Vec<u8> {
    let mut out = Vec::new();
    for line in script
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (op, arg) = line.split_once(' ').unwrap_or((line, ""));
        match op {
            "line" => {
                out.extend_from_slice(arg.as_bytes());
                out.push(b'\n');
            }
            "text" => out.extend_from_slice(arg.as_bytes()),
            "hex" => out.extend(unhex(arg)),
            "repeat" => {
                let (count, byte) = arg.split_once(' ').expect("repeat COUNT HEXBYTE");
                let count: usize = count.parse().expect("repeat count");
                out.extend(std::iter::repeat_n(unhex(byte)[0], count));
            }
            other => panic!("unknown request segment {other:?}"),
        }
    }
    out
}

struct Case {
    name: String,
    request: Vec<u8>,
    reply: Vec<u8>,
    /// Reply bytes written before the client half-closes.
    before: usize,
    /// The server hangs up without waiting for the client.
    closes: bool,
}

fn cases() -> Vec<Case> {
    let manifest = std::fs::read_to_string(fixtures().join("cases.txt")).expect("cases.txt");
    manifest
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let fields: Vec<&str> = l.split_whitespace().collect();
            let [name, before, close] = fields[..] else {
                panic!("bad manifest line {l:?}");
            };
            let read = |ext: &str| std::fs::read(fixtures().join(format!("{name}.{ext}")));
            Case {
                name: name.to_string(),
                request: parse(&String::from_utf8(read("request").unwrap()).unwrap()),
                reply: read("reply").unwrap(),
                before: before.parse().unwrap(),
                closes: match close {
                    "closes" => true,
                    "open" => false,
                    other => panic!("bad close column {other:?}"),
                },
            }
        })
        .collect()
}

fn service() -> Service {
    let service = Service::start(ServiceConfig::default());
    service
        .handle()
        .register_table("census", CensusGenerator::new(11).generate(1_500));
    service
}

fn replay(front: &str, addr: SocketAddr, case: &Case) {
    let what = format!("{} through the {front} front", case.name);
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    sock.write_all(&case.request).expect("write request stream");
    let mut got = vec![0u8; case.before];
    if let Err(e) = sock.read_exact(&mut got) {
        panic!("{what}: fewer than {} reply bytes: {e}", case.before);
    }
    assert_eq!(
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(&case.reply[..case.before]),
        "{what}: replies before EOF"
    );
    assert_eq!(got, case.reply[..case.before], "{what}: reply bytes");
    if case.closes {
        let mut rest = Vec::new();
        sock.read_to_end(&mut rest)
            .unwrap_or_else(|e| panic!("{what}: the server should hang up: {e}"));
        assert!(rest.is_empty(), "{what}: bytes after the last reply");
        return;
    }
    // Still open: a short read times out instead of seeing EOF.
    sock.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    match sock.read(&mut [0u8; 1]) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("{what}: the server should wait for more requests, got {other:?}"),
    }
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    sock.shutdown(Shutdown::Write).expect("half-close");
    let mut rest = Vec::new();
    sock.read_to_end(&mut rest).expect("read to EOF");
    assert_eq!(
        String::from_utf8_lossy(&rest),
        String::from_utf8_lossy(&case.reply[case.before..]),
        "{what}: replies after EOF"
    );
    assert_eq!(
        rest,
        case.reply[case.before..],
        "{what}: reply bytes after EOF"
    );
}

#[test]
fn parent_captured_corpus_replays_byte_identically_through_both_fronts() {
    let cases = cases();
    assert_eq!(cases.len(), 12, "every corpus case is listed");
    for case in &cases {
        let blocking = service();
        let server = TcpServer::bind("127.0.0.1:0", blocking.handle()).expect("bind");
        replay("blocking", server.local_addr(), case);
        drop(server);

        let reactor = service();
        let server = bind_reactor("127.0.0.1:0", reactor.handle()).expect("bind reactor");
        replay("reactor", server.local_addr(), case);
    }
}
