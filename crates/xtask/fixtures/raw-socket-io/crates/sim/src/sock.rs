//! Fixture: raw socket I/O outside rbcast-net's transport module.
//! `cargo xtask audit --root crates/xtask/fixtures/raw-socket-io` must
//! exit non-zero with `raw-socket-io` findings (and only those — the
//! socket opens below use `expect` so `unwrap-panic` stays quiet).

fn sidechannel() -> std::net::UdpSocket {
    std::net::UdpSocket::bind("127.0.0.1:0").expect("fixture bind")
}

fn control_plane(addr: &str) -> std::io::Result<TcpStream> {
    TcpStream::connect(addr)
}
