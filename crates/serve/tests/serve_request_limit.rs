//! Request-line bound: a client that sends more than
//! `MAX_REQUEST_BYTES` without a newline gets one error line and a
//! closed connection instead of an ever-growing server buffer, and the
//! server keeps answering other connections.

mod util;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use wheels_core::analysis::view::DatasetView;
use wheels_core::campaign::Campaign;
use wheels_core::records::Dataset;
use wheels_experiments::world::{Scale, World};
use wheels_serve::server::{self, JournalSpec, ServeOptions, MAX_REQUEST_BYTES};

#[test]
fn oversized_request_line_is_refused_and_the_server_stays_up() {
    let dir = util::tmpdir("request_limit");
    let campaign = Campaign::standard(2022);
    let mut cfg = Scale::Quick.config();
    cfg.seed = 2022;
    let base = World::from_view(Scale::Quick, 2022, DatasetView::new(Dataset::default()));
    let handle = server::start(
        base,
        JournalSpec {
            dir,
            fingerprint: campaign.fingerprint(&cfg),
        },
        "127.0.0.1:0",
        ServeOptions {
            workers: 1,
            poll_ms: 50,
            io_timeout_ms: 60_000,
            max_inflight: 4,
            drain_secs: 1,
        },
    )
    .expect("server starts");

    let sock = TcpStream::connect(handle.addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = sock.try_clone().expect("clone socket");
    writer
        .write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
        .expect("send oversized line");
    let mut reader = BufReader::new(sock);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read error line");
    assert!(line.starts_with(r#"{"ok":false"#), "{line}");
    assert!(line.contains("exceeds"), "{line}");
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).expect("read after error"),
        0,
        "the connection must be closed after the error line: {line}"
    );

    let replies = util::tcp_session(handle.addr(), &[r#"{"cmd":"status"}"#]);
    assert!(replies[0].contains(r#""cmd":"status""#), "{}", replies[0]);
    assert!(replies[0].contains(r#""errors":1"#), "{}", replies[0]);
    handle.shutdown().expect("clean shutdown");
}
