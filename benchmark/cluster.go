package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"

	"csar"
	"csar/internal/client"
	"csar/internal/meta"
	"csar/internal/rpc"
	"csar/internal/server"
	"csar/internal/simdisk"
	"csar/internal/storage"
	"csar/internal/wire"
)

// numServers is the size of every benchmark cluster: 6 I/O servers, so
// RAID5/Hybrid stripes are 5 data + 1 parity units and RS(4,2) fits exactly.
const numServers = 6

// stripeUnit is the stripe unit of every benchmark file (PVFS's default).
const stripeUnit = 64 << 10

// endpoint is one loopback-TCP listener plus the connections it accepted.
// stop closes all of them and returns only after the accept loop and every
// per-connection server goroutine has exited, so a stopped endpoint leaves
// nothing running.
type endpoint struct {
	addr string

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// listen starts serving on addr ("127.0.0.1:0" picks a port; a replacement
// server passes the address of the one it replaces). serve owns the
// connection it is given and returns when the connection ends.
func listen(addr string, serve func(net.Conn)) (*endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	e := &endpoint{addr: ln.Addr().String(), ln: ln, conns: make(map[net.Conn]struct{})}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed by stop
			}
			e.mu.Lock()
			if e.ln == nil { // stopped while accepting
				e.mu.Unlock()
				conn.Close() //nolint:errcheck // never served
				return
			}
			e.conns[conn] = struct{}{}
			e.wg.Add(1)
			e.mu.Unlock()
			go func() {
				defer e.wg.Done()
				serve(conn)
				e.mu.Lock()
				delete(e.conns, conn)
				e.mu.Unlock()
			}()
		}
	}()
	return e, nil
}

func (e *endpoint) stop() {
	e.mu.Lock()
	ln := e.ln
	e.ln = nil
	for c := range e.conns {
		c.Close() //nolint:errcheck // teardown
	}
	e.mu.Unlock()
	if ln != nil {
		ln.Close() //nolint:errcheck // teardown
	}
	e.wg.Wait()
}

// iod is one I/O daemon: what csar-iod runs without -store (an untimed
// in-memory simdisk behind server.Server behind rpc.ServeConnTraced).
type iod struct {
	disk *simdisk.Disk
	ep   *endpoint
}

// cluster is the system under test: the deployment a csar.Dial user talks
// to, collapsed into this process. tr is nil on untraced passes.
type cluster struct {
	tr      *tracer
	iods    []*iod
	mgr     *meta.Manager
	mgrEP   *endpoint
	tmpDir  string
	clients []*client.Client // one per client goroutine, in dial order
	closers []func() error
}

func (cl *cluster) startIOD(idx int, addr string) error {
	disk := simdisk.New(nil, simdisk.Params{PageSize: 4096})
	var backend storage.Backend = disk
	if cl.tr != nil {
		backend = &tracedBackend{Backend: disk, st: &cl.tr.storage[idx]}
	}
	srv := server.New(idx, backend, server.DefaultOptions())
	handle := rpc.TracedHandler(srv.HandleTraced)
	if cl.tr != nil {
		handle = cl.tr.wrapHandler(idx, handle)
	}
	ep, err := listen(addr, func(conn net.Conn) {
		rpc.ServeConnTraced(conn, handle, nil, nil) //nolint:errcheck // ends when the peer or stop closes conn
	})
	if err != nil {
		return err
	}
	cl.iods[idx] = &iod{disk: disk, ep: ep}
	return nil
}

// newCluster brings up 6 iods and one manager on loopback TCP. With
// persistentMeta the manager keeps a fsync-per-append WAL in a fresh temp
// directory (what csar-mgr -meta runs); otherwise its namespace is in
// memory. On error everything already started is torn down.
func newCluster(tr *tracer, persistentMeta bool) (cl *cluster, err error) {
	cl = &cluster{tr: tr, iods: make([]*iod, numServers)}
	defer func() {
		if err != nil {
			cl.close()
			cl = nil
		}
	}()
	addrs := make([]string, numServers)
	for i := range cl.iods {
		if err := cl.startIOD(i, "127.0.0.1:0"); err != nil {
			return cl, err
		}
		addrs[i] = cl.iods[i].ep.addr
	}
	if persistentMeta {
		dir, err := os.MkdirTemp("", "csar-benchmark-meta-")
		if err != nil {
			return cl, err
		}
		cl.tmpDir = dir
		if cl.mgr, err = meta.NewPersistent(numServers, addrs, filepath.Join(dir, "meta.json")); err != nil {
			return cl, err
		}
	} else {
		cl.mgr = meta.New(numServers, addrs)
	}
	serve := func(conn net.Conn) {
		rpc.ServeConn(conn, cl.mgr.Handle, nil, nil) //nolint:errcheck // ends when the peer or stop closes conn
	}
	if tr != nil {
		handle := tr.wrapHandler(mgrIndex, func(req wire.Msg, _ uint64) (wire.Msg, error) { return cl.mgr.Handle(req) })
		serve = func(conn net.Conn) {
			rpc.ServeConnTraced(conn, handle, nil, nil) //nolint:errcheck // as above
		}
	}
	cl.mgrEP, err = listen("127.0.0.1:0", serve)
	return cl, err
}

// dial attaches one more client. Untraced, it is exactly csar.Dial — net.go's
// connection pools and DefaultPolicy. Traced, the same client.Client is built
// here over pools of wrapped rpc.Clients, because a csar.Dial client gives an
// outside observer no seam between the engine and the transport.
func (cl *cluster) dial() (*client.Client, error) {
	id := len(cl.clients)
	var c *client.Client
	if cl.tr == nil {
		cc, err := csar.Dial(cl.mgrEP.addr)
		if err != nil {
			return nil, err
		}
		c = cc.InternalClient()
		cl.closers = append(cl.closers, cc.Close)
	} else {
		mgrs := []client.Caller{cl.tr.newPool(id, mgrIndex, cl.mgrEP.addr, 1)}
		srvs := make([]client.Caller, numServers)
		for i, d := range cl.iods {
			srvs[i] = cl.tr.newPool(id, i, d.ep.addr, csar.DefaultConnsPerServer)
		}
		c = client.NewMulti(mgrs, srvs)
		c.SetPolicy(client.DefaultPolicy())
		cl.closers = append(cl.closers, c.Close)
	}
	cl.clients = append(cl.clients, c)
	return c, nil
}

// stopServer kills iod idx: its listener and every connection close, as when
// the process dies.
func (cl *cluster) stopServer(idx int) { cl.iods[idx].ep.stop() }

// replaceServer brings a blank iod up on the dead one's address (a new disk
// after a crash); Rebuild then reconstructs its contents.
func (cl *cluster) replaceServer(idx int) error {
	return cl.startIOD(idx, cl.iods[idx].ep.addr)
}

// allocatedBytes sums the bytes materialised on every store — the numerator
// of storage_b_per_user_b.
func (cl *cluster) allocatedBytes() int64 {
	var n int64
	for _, d := range cl.iods {
		n += d.disk.AllocatedBytes()
	}
	return n
}

// close stops every client, listener and the manager and removes the temp
// directory. It is safe on a partially built cluster and reports the first
// failure.
func (cl *cluster) close() error {
	var errs []error
	for _, c := range cl.closers {
		errs = append(errs, c())
	}
	for _, d := range cl.iods {
		if d != nil {
			d.ep.stop()
		}
	}
	if cl.mgrEP != nil {
		cl.mgrEP.stop()
	}
	if cl.mgr != nil {
		errs = append(errs, cl.mgr.Close())
	}
	if cl.tmpDir != "" {
		errs = append(errs, os.RemoveAll(cl.tmpDir))
	}
	return errors.Join(errs...)
}
