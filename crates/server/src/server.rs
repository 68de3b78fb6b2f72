//! The TCP front end: connection handling over the bounded pool, and the
//! matching [`Client`] that speaks `lfs-wire/1` and implements
//! [`vfs::FileSystem`], so any workload generator can drive a remote
//! mount exactly like an embedded one. Both ends deal in [`vfs::Op`]s:
//! the server applies each one it decodes, and the client forwards each
//! call as one.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use blockdev::QueueDevice;
use lfs_core::SharedLfs;
use vfs::{Forward, FsError, FsResult};

use crate::pool::Pool;
use crate::protocol::{
    decode_response, encode_response, read_frame, write_frame, Reply, Request, MAX_IO,
};

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads — the number of connections served concurrently.
    pub workers: usize,
    /// Accepted-but-unseated connections allowed to queue before `accept`
    /// itself blocks (the pool's queue bound).
    pub queue_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_cap: 64,
        }
    }
}

/// A running server; dropping (or [`ServerHandle::stop`]) shuts it down.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    connections: Arc<AtomicU64>,
    /// Live connection streams by id, so `stop` can sever them — a
    /// connection parked in `read_frame` would otherwise pin its pool
    /// worker forever and deadlock the drain.
    live: Arc<Mutex<HashMap<u64, TcpStream>>>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Acquire)
    }

    /// Stops accepting, drains in-flight connections, and joins the
    /// accept loop and pool.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Sever live connections so their pool jobs come home; a client
        // blocked mid-request sees EOF/reset instead of a hang.
        for (_, s) in self.live.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_inner();
        }
    }
}

/// Binds `addr` and serves `fs` until [`ServerHandle::stop`]. Each
/// connection is one pool job running a read-decode-apply-respond loop;
/// the bounded pool is the admission control: at most `workers`
/// connections are live, at most `queue_cap` more are parked.
pub fn serve<D, A>(fs: SharedLfs<D>, addr: A, cfg: ServerConfig) -> io::Result<ServerHandle>
where
    D: QueueDevice + Send + 'static,
    A: ToSocketAddrs,
{
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let connections = Arc::new(AtomicU64::new(0));
    let live: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
    let accept_thread = {
        let shutdown = Arc::clone(&shutdown);
        let connections = Arc::clone(&connections);
        let live = Arc::clone(&live);
        std::thread::Builder::new()
            .name("lfs-accept".into())
            .spawn(move || {
                let pool = Pool::new(cfg.workers, cfg.queue_cap);
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let id = connections.fetch_add(1, Ordering::AcqRel);
                    if let Ok(clone) = stream.try_clone() {
                        live.lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .insert(id, clone);
                    }
                    let fs = fs.clone();
                    let live = Arc::clone(&live);
                    pool.spawn(move || {
                        let _ = serve_connection(fs, stream);
                        live.lock().unwrap_or_else(|e| e.into_inner()).remove(&id);
                    });
                }
                pool.shutdown();
            })?
    };
    Ok(ServerHandle {
        addr: local,
        shutdown,
        connections,
        live,
        accept_thread: Some(accept_thread),
    })
}

/// Runs one connection to completion (clean EOF or I/O error).
fn serve_connection<D: QueueDevice + Send>(fs: SharedLfs<D>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut rd = BufReader::new(stream.try_clone()?);
    let mut wr = BufWriter::new(stream);
    let mut fs = fs; // FileSystem methods take &mut self.
    while let Some(payload) = read_frame(&mut rd)? {
        let result = match Request::decode(&payload) {
            // Checked before `apply` allocates the reply buffer.
            Ok(Request::Read(_, _, len)) if len as usize > MAX_IO => Err(FsError::InvalidArgument(
                "read longer than one frame carries",
            )),
            Ok(req) => req.apply(&mut fs),
            Err(e) => Err(FsError::InvalidArgument(
                // Keep the static-str error variant; the detail string
                // still travels in the response body via Display.
                if e.kind() == io::ErrorKind::InvalidData {
                    "malformed request frame"
                } else {
                    "request decode failed"
                },
            )),
        };
        write_frame(&mut wr, &encode_response(&result))?;
        wr.flush()?;
    }
    Ok(())
}

/// A connected `lfs-wire/1` client. Implements [`vfs::FileSystem`]
/// through [`Forward`], so the workload generators drive a server exactly
/// like an embedded mount.
pub struct Client {
    rd: BufReader<TcpStream>,
    wr: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            rd: BufReader::new(stream.try_clone()?),
            wr: BufWriter::new(stream),
        })
    }

    /// One request frame out, one response frame back.
    fn round_trip(&mut self, req: &Request) -> FsResult<Reply> {
        let io_err = |e: io::Error| FsError::device(format!("wire: {e}"));
        write_frame(&mut self.wr, &req.encode()).map_err(io_err)?;
        self.wr.flush().map_err(io_err)?;
        let payload = read_frame(&mut self.rd)
            .map_err(io_err)?
            .ok_or_else(|| FsError::device("wire: server closed connection"))?;
        decode_response(&payload).map_err(io_err)?
    }
}

fn unexpected(r: Reply) -> FsError {
    FsError::device(format!("wire: unexpected reply {r:?}"))
}

impl Forward for Client {
    /// Sends `req`; a read or write of more than [`MAX_IO`] bytes goes as
    /// consecutive pieces of at most that size, so no frame outgrows
    /// [`crate::protocol::MAX_FRAME`]. Such a call is not atomic against
    /// other clients.
    fn call(&mut self, req: Request) -> FsResult<Reply> {
        match req {
            Request::Read(ino, off, len) if len as usize > MAX_IO => {
                let mut data = Vec::new();
                while data.len() < len as usize {
                    let want = (len as usize - data.len()).min(MAX_IO);
                    let at = off + data.len() as u64;
                    match self.round_trip(&Request::Read(ino, at, want as u32))? {
                        Reply::Data(d) if d.len() <= want => {
                            data.extend_from_slice(&d);
                            if d.len() < want {
                                break; // end of file
                            }
                        }
                        r => return Err(unexpected(r)),
                    }
                }
                Ok(Reply::Data(data))
            }
            Request::Write(ino, off, data) if data.len() > MAX_IO => {
                for (i, piece) in data.chunks(MAX_IO).enumerate() {
                    let at = off + (i * MAX_IO) as u64;
                    let r = self.round_trip(&Request::Write(ino, at, piece.to_vec()))?;
                    if r != Reply::Unit {
                        return Err(unexpected(r));
                    }
                }
                Ok(Reply::Unit)
            }
            req => self.round_trip(&req),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::MemDisk;
    use lfs_core::LfsConfig;
    use vfs::FileSystem;

    fn test_server() -> (ServerHandle, SharedLfs<MemDisk>) {
        let fs = SharedLfs::format(MemDisk::new(4096), LfsConfig::small()).unwrap();
        let h = serve(
            fs.clone(),
            "127.0.0.1:0",
            ServerConfig {
                workers: 4,
                queue_cap: 16,
            },
        )
        .unwrap();
        (h, fs)
    }

    #[test]
    fn end_to_end_over_loopback() {
        let (h, _fs) = test_server();
        let mut c = Client::connect(h.addr()).unwrap();
        c.mkdir("/dir").unwrap();
        let ino = c.write_file("/dir/file", b"over the wire").unwrap();
        assert_eq!(c.read_to_vec(ino).unwrap(), b"over the wire");
        let m = c.metadata(ino).unwrap();
        assert_eq!(m.size, 13);
        let names: Vec<String> = c
            .readdir("/dir")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["file".to_string()]);
        c.sync().unwrap();
        let s = c.statfs().unwrap();
        assert_eq!(s.num_files, 2);
        assert!(matches!(c.unlink("/missing"), Err(FsError::NotFound)));
        c.unlink("/dir/file").unwrap();
        c.rmdir("/dir").unwrap();
        h.stop();
    }

    #[test]
    fn concurrent_clients_share_one_mount() {
        let (h, fs) = test_server();
        let addr = h.addr();
        let mut setup = Client::connect(addr).unwrap();
        let ino = setup
            .write_file("/shared", b"read me concurrently")
            .unwrap();
        setup.sync().unwrap();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let mine = c.write_file(&format!("/c{i}"), &[i as u8; 100]).unwrap();
                    for _ in 0..20 {
                        assert_eq!(c.read_to_vec(ino).unwrap(), b"read me concurrently");
                        assert_eq!(c.read_to_vec(mine).unwrap(), vec![i as u8; 100]);
                    }
                    c.sync().unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(h.connections() >= 9);
        h.stop();
        // The mount survives the server: verify through the shared handle.
        let mut fs = fs;
        assert_eq!(fs.read_to_vec(ino).unwrap(), b"read me concurrently");
        for i in 0..8u8 {
            let ino = fs.lookup(&format!("/c{i}")).unwrap();
            assert_eq!(fs.read_to_vec(ino).unwrap(), vec![i; 100]);
        }
    }

    /// A read or write longer than one frame carries goes out in pieces
    /// and comes back whole.
    #[test]
    fn io_larger_than_one_frame_round_trips() {
        let fs = SharedLfs::format(MemDisk::new(8192), LfsConfig::small()).unwrap();
        let h = serve(fs, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        let data: Vec<u8> = (0..9 << 20).map(|i: u32| (i % 251) as u8).collect();
        let ino = c.write_file("/big", &data).unwrap();
        assert!(c.read_to_vec(ino).unwrap() == data, "9 MB came back wrong");
        h.stop();
    }

    /// A `Read` length off the wire is refused before anything is
    /// allocated for it, and the connection goes on serving.
    #[test]
    fn oversized_read_is_refused_and_the_connection_survives() {
        let (h, _fs) = test_server();
        let mut c = Client::connect(h.addr()).unwrap();
        let ino = c.write_file("/f", b"small").unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        let mut rd = BufReader::new(s.try_clone().unwrap());
        write_frame(&mut s, &Request::Read(ino, 0, u32::MAX).encode()).unwrap();
        let res = decode_response(&read_frame(&mut rd).unwrap().unwrap()).unwrap();
        assert!(matches!(res, Err(FsError::InvalidArgument(_))), "{res:?}");
        write_frame(&mut s, &Request::Read(ino, 0, 64).encode()).unwrap();
        let res = decode_response(&read_frame(&mut rd).unwrap().unwrap()).unwrap();
        assert_eq!(res.unwrap(), Reply::Data(b"small".to_vec()));
        h.stop();
    }

    #[test]
    fn malformed_frames_get_error_responses_not_hangs() {
        let (h, _fs) = test_server();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        // Opcode 99 does not exist.
        write_frame(&mut s, &[99u8, 1, 2, 3]).unwrap();
        s.flush().unwrap();
        let mut rd = BufReader::new(s.try_clone().unwrap());
        let payload = read_frame(&mut rd).unwrap().unwrap();
        let res = decode_response(&payload).unwrap();
        assert!(matches!(res, Err(FsError::InvalidArgument(_))));
        h.stop();
    }
}
