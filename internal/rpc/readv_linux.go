//go:build linux

package rpc

import (
	"io"
	"syscall"
	"unsafe"
)

// maxIOV bounds the pieces one readv is handed (the kernel's IOV_MAX is
// 1024; a response lands in a handful).
const maxIOV = 64

// readv reads into pieces with the readv system call on a connection's
// descriptor. Its state is allocated once per connection, so a landing
// allocates nothing.
type readv struct {
	rc  syscall.RawConn
	iov []syscall.Iovec
	n   int
	err error
	do  func(fd uintptr) bool // v.once, bound once
}

// vectoredReader returns a reader of pieces by vectored reads of conn's
// descriptor, or nil when conn has none (an in-process pipe).
func vectoredReader(conn io.Reader) func(pieces [][]byte) error {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	v := &readv{rc: rc, iov: make([]syscall.Iovec, 0, maxIOV)}
	v.do = v.once
	return v.read
}

// read fills pieces exactly, each readv taking as many of them as the
// socket holds bytes for.
func (v *readv) read(pieces [][]byte) error {
	for {
		for len(pieces) > 0 && len(pieces[0]) == 0 {
			pieces = pieces[1:]
		}
		if len(pieces) == 0 {
			return nil
		}
		v.iov = v.iov[:0]
		for _, p := range pieces[:min(len(pieces), maxIOV)] {
			if len(p) > 0 {
				iov := syscall.Iovec{Base: &p[0]}
				iov.SetLen(len(p))
				v.iov = append(v.iov, iov)
			}
		}
		v.n, v.err = 0, nil
		err := v.rc.Read(v.do)
		clear(v.iov) // pin none of the caller's memory between landings
		if err != nil {
			return err
		}
		if v.err != nil {
			return v.err
		}
		for n := v.n; n > 0; {
			k := min(n, len(pieces[0]))
			pieces[0], n = pieces[0][k:], n-k
			if len(pieces[0]) == 0 {
				pieces = pieces[1:]
			}
		}
	}
}

// once is one readv attempt, for syscall.RawConn.Read: false asks it to
// wait until the socket is readable and call again.
func (v *readv) once(fd uintptr) bool {
	for {
		n, _, errno := syscall.Syscall(syscall.SYS_READV, fd, uintptr(unsafe.Pointer(&v.iov[0])), uintptr(len(v.iov)))
		switch {
		case errno == syscall.EINTR:
			continue
		case errno == syscall.EAGAIN:
			return false
		case errno != 0:
			v.err = errno
		case n == 0:
			v.err = io.ErrUnexpectedEOF
		}
		v.n = int(n)
		return true
	}
}
