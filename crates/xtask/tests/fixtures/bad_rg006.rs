//! Fixture: RG006 fires on cleared socket deadlines and respects test
//! exemptions; `TcpStream::connect` (line 8) is clippy's, not RG006's.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn dial_no_deadline(addr: SocketAddr) -> std::io::Result<TcpStream> {
    TcpStream::connect(addr)
}

fn dial_bounded(addr: SocketAddr) -> std::io::Result<TcpStream> {
    TcpStream::connect_timeout(&addr, Duration::from_millis(500))
}

fn clear_deadlines(s: &TcpStream) -> std::io::Result<()> {
    s.set_read_timeout(None)?;
    s.set_write_timeout(None)?;
    s.set_read_timeout(Some(Duration::from_secs(2)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_block() {
        let s = TcpStream::connect("127.0.0.1:9".parse::<SocketAddr>().unwrap()).unwrap();
        s.set_read_timeout(None).unwrap();
    }
}
