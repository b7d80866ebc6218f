//! Kernel objects: pipes, UNIX-style sockets, files, shared memory.
//!
//! These are pure data structures plus invariant-preserving methods; all
//! blocking/waking policy lives in the kernel proper (threads block with a
//! [`crate::BlockReason`] and restart their syscall when woken).

use std::collections::VecDeque;

use simmem::FrameId;

use crate::process::Tid;

/// A file-descriptor index within a process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fd(pub u32);

/// An entry in a process's fd table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KObject {
    /// Read end of a pipe.
    PipeRead(usize),
    /// Write end of a pipe.
    PipeWrite(usize),
    /// A listening named socket.
    Listener(usize),
    /// A connected stream socket endpoint.
    Sock(usize),
    /// An open file with a cursor.
    File {
        /// Index into the VFS file table.
        id: usize,
        /// Current offset.
        pos: u64,
    },
    /// A shared-memory segment handle.
    Shm(usize),
    /// A handle owned by an embedding layer (dIPC domains, grants, entry
    /// points). The kernel only stores and duplicates these; semantics live
    /// in the embedder, keyed by `(class, id)`.
    Opaque {
        /// Embedder-defined class.
        class: u32,
        /// Embedder-defined identifier.
        id: u64,
    },
}

/// Moves the first `len` bytes of `ring` (all of it, if shorter) into `out`,
/// replacing its contents, as one slice copy per half of the ring. Returns
/// the number of bytes moved.
pub fn drain_into(ring: &mut VecDeque<u8>, len: usize, out: &mut Vec<u8>) -> usize {
    let n = len.min(ring.len());
    let (front, back) = ring.as_slices();
    let head = n.min(front.len());
    out.clear();
    out.extend_from_slice(&front[..head]);
    out.extend_from_slice(&back[..n - head]);
    ring.drain(..n);
    n
}

/// Default pipe capacity (64 KiB, like Linux).
pub const PIPE_CAPACITY: usize = 64 * 1024;

/// An anonymous pipe.
#[derive(Debug)]
pub struct Pipe {
    /// Buffered bytes.
    pub buf: VecDeque<u8>,
    /// Maximum buffered bytes.
    pub capacity: usize,
    /// Live read-end references.
    pub readers: u32,
    /// Live write-end references.
    pub writers: u32,
    /// Threads blocked reading.
    pub read_waiters: Vec<Tid>,
    /// Threads blocked writing.
    pub write_waiters: Vec<Tid>,
}

impl Pipe {
    /// A fresh pipe with one reader and one writer reference.
    pub fn new() -> Pipe {
        Pipe {
            buf: VecDeque::new(),
            capacity: PIPE_CAPACITY,
            readers: 1,
            writers: 1,
            read_waiters: Vec::new(),
            write_waiters: Vec::new(),
        }
    }

    /// Writes up to `data.len()` bytes; returns bytes accepted.
    pub fn write(&mut self, data: &[u8]) -> usize {
        let room = self.capacity - self.buf.len();
        let n = room.min(data.len());
        self.buf.extend(&data[..n]);
        n
    }

    /// Reads up to `len` bytes into `out` (replacing its contents);
    /// returns bytes read.
    pub fn read(&mut self, len: usize, out: &mut Vec<u8>) -> usize {
        drain_into(&mut self.buf, len, out)
    }

    /// End-of-file: no writers and empty.
    pub fn eof(&self) -> bool {
        self.writers == 0 && self.buf.is_empty()
    }
}

impl Default for Pipe {
    fn default() -> Self {
        Pipe::new()
    }
}

/// Default socket buffer size.
pub const SOCK_CAPACITY: usize = 208 * 1024;

/// One endpoint of a connected stream socket pair.
#[derive(Debug)]
pub struct Sock {
    /// Index of the peer endpoint (or `usize::MAX` if disconnected).
    pub peer: usize,
    /// Receive buffer (bytes the peer sent us).
    pub rx: VecDeque<u8>,
    /// Receive buffer capacity.
    pub capacity: usize,
    /// Threads blocked in recv on this endpoint.
    pub recv_waiters: Vec<Tid>,
    /// Threads blocked in send (peer's rx full).
    pub send_waiters: Vec<Tid>,
    /// Passed file descriptors waiting to be received (SCM_RIGHTS-style;
    /// how dIPC handles are delegated between processes, §5.2.2).
    pub fd_queue: VecDeque<KObject>,
    /// Endpoint closed.
    pub closed: bool,
}

impl Sock {
    /// A disconnected endpoint (peer set during pairing).
    pub fn new() -> Sock {
        Sock {
            peer: usize::MAX,
            rx: VecDeque::new(),
            capacity: SOCK_CAPACITY,
            recv_waiters: Vec::new(),
            send_waiters: Vec::new(),
            fd_queue: VecDeque::new(),
            closed: false,
        }
    }
}

impl Default for Sock {
    fn default() -> Self {
        Sock::new()
    }
}

/// A listening named socket ("UNIX named sockets", §6.2.1).
#[derive(Debug, Default)]
pub struct Listener {
    /// Bound path.
    pub name: String,
    /// Established-but-unaccepted connections (our endpoint index).
    pub backlog: VecDeque<usize>,
    /// Threads blocked in accept.
    pub accept_waiters: Vec<Tid>,
    /// Listener closed.
    pub closed: bool,
}

/// Backing storage class for a file (on-disk vs tmpfs configurations of
/// §7.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storage {
    /// Rotational disk — high per-operation latency.
    Disk,
    /// In-memory file system — near-zero latency.
    Tmpfs,
}

/// A file in the trivial VFS.
#[derive(Debug)]
pub struct VFile {
    /// Path.
    pub name: String,
    /// Contents.
    pub data: Vec<u8>,
    /// Storage latency class.
    pub storage: Storage,
}

/// A shared-memory segment (maps the same frames into several address
/// spaces).
#[derive(Debug)]
pub struct Shm {
    /// Backing frames.
    pub frames: Vec<FrameId>,
    /// Byte size.
    pub size: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_write_read_fifo() {
        let mut p = Pipe::new();
        let mut out = Vec::new();
        assert_eq!(p.write(b"hello"), 5);
        assert_eq!((p.read(2, &mut out), &out[..]), (2, &b"he"[..]));
        assert_eq!((p.read(10, &mut out), &out[..]), (3, &b"llo"[..]));
        assert_eq!((p.read(1, &mut out), &out[..]), (0, &b""[..]));
    }

    #[test]
    fn pipe_respects_capacity() {
        let mut p = Pipe::new();
        p.capacity = 4;
        assert_eq!(p.write(b"abcdef"), 4);
        assert_eq!(p.write(b"x"), 0);
        p.read(2, &mut Vec::new());
        assert_eq!(p.write(b"xy"), 2);
    }

    #[test]
    fn pipe_eof_semantics() {
        let mut p = Pipe::new();
        p.write(b"z");
        p.writers = 0;
        assert!(!p.eof(), "buffered data readable after writer close");
        p.read(1, &mut Vec::new());
        assert!(p.eof());
    }

    #[test]
    fn sock_default_disconnected() {
        let s = Sock::new();
        assert_eq!(s.peer, usize::MAX);
        assert!(!s.closed);
    }
}
