package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"csar/internal/client"
	"csar/internal/rpc"
	"csar/internal/wire"
)

// landingSchemes are the five redundancy shapes, each on the smallest
// cluster its tables use.
var landingSchemes = []struct {
	name    string
	scheme  wire.Scheme
	servers int
	parity  int
}{
	{"raid0", wire.Raid0, 5, 0},
	{"raid1", wire.Raid1, 5, 0},
	{"raid5", wire.Raid5, 5, 0},
	{"hybrid", wire.Hybrid, 5, 0},
	{"rs42", wire.ReedSolomon, 6, 2},
}

// TestReadLandingDifferential holds the three readers of data servers — the
// healthy ReadAt, the degraded read's live-server fetch and the RMW's old
// data — to a reference file, for every scheme, each response landed in its
// pieces off the connection, with pool poison on. The ranges are seeded and
// unaligned; the RMW rows write ranges straddling a unit boundary and read
// each one back. The misbehaving rows hold what a response that cannot land
// does.
func TestReadLandingDifferential(t *testing.T) {
	t.Run("misbehaving", runMisbehavingServer)
	const su = 64
	for ci, sc := range landingSchemes {
		for mi, mode := range []string{"healthy", "down", "rmw"} {
			seed := int64(100*ci + 10 + mi)
			t.Run(fmt.Sprintf("%s/pipe/%s", sc.name, mode), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				c := newCluster(t, sc.servers)
				cl := c.NewClient()
				f, err := cl.CreateParity("land", sc.servers, su, sc.scheme, sc.parity)
				must(t, err)
				g := f.Geometry()
				ref := make([]byte, 6*g.StripeSize()+su/3)
				r.Read(ref)
				mustWrite(t, f, ref, 0)
				size := int64(len(ref))
				check := func(i int, off, n int64) {
					t.Helper()
					got := make([]byte, n)
					if _, err := f.ReadAt(got, off); err != nil {
						t.Fatalf("seed %d read %d [%d,+%d): %v", seed, i, off, n, err)
					}
					for b := range got {
						if got[b] != ref[off+int64(b)] {
							t.Fatalf("seed %d read %d [%d,+%d): byte %d (server %d) is %d, want %d", seed, i, off, n,
								off+int64(b), g.ServerOf(g.UnitOf(off+int64(b))), got[b], ref[off+int64(b)])
						}
					}
				}
				randomRange := func() (int64, int64) {
					off := r.Int63n(size)
					return off, 1 + r.Int63n(min(size-off, 3*g.StripeSize()))
				}
				switch mode {
				case "down":
					dead := r.Intn(sc.servers)
					c.StopServer(dead)
					cl.MarkDown(dead)
					if sc.parity == 0 && sc.scheme == wire.Raid0 {
						if _, err := f.ReadAt(make([]byte, size), 0); !errors.Is(err, client.ErrNoRedundancy) {
							t.Fatalf("raid0 read with server %d down: %v, want ErrNoRedundancy", dead, err)
						}
						return
					}
					for i := range 40 {
						if i == 20 {
							// The rest find the server stopped, not marked
							// down: the healthy read fails over mid-read.
							cl.MarkUp(dead)
						}
						off, n := randomRange()
						check(i, off, n)
					}
				case "rmw":
					for i := range 30 {
						b := 1 + r.Int63n(g.UnitsIn(size)-2)
						off := g.UnitStart(b) - 1 - r.Int63n(su-1)
						patch := make([]byte, 2+r.Int63n(su))
						r.Read(patch)
						mustWrite(t, f, patch, off)
						copy(ref[off:], patch)
						check(i, off, int64(len(patch)))
					}
					check(-1, 0, size)
				default:
					for i := range 40 {
						off, n := randomRange()
						check(i, off, n)
					}
					check(-1, 0, size)
				}
			})
		}
	}
}

// runMisbehavingServer: a server whose Read answers are one byte short, one
// byte long, or a wire.Error fails the healthy read and the RMW with exactly
// the errors the client has always given for them — a response that cannot
// land is reported with its length.
func runMisbehavingServer(t *testing.T) {
	const su, bad = 64, 1
	for _, tc := range []struct {
		name   string
		mangle func(*wire.ReadResp) (wire.Msg, error)
		want   func(n int) string // the error for a read of n bytes from server bad
	}{
		{"short", func(r *wire.ReadResp) (wire.Msg, error) {
			return &wire.ReadResp{Data: r.Data[:len(r.Data)-1]}, nil
		}, func(n int) string {
			return fmt.Sprintf("client: server %d returned %d bytes, want %d", bad, n-1, n)
		}},
		{"long", func(r *wire.ReadResp) (wire.Msg, error) {
			return &wire.ReadResp{Data: append(r.Data[:len(r.Data):len(r.Data)], 7)}, nil
		}, func(n int) string {
			return fmt.Sprintf("client: server %d returned %d bytes, want %d", bad, n+1, n)
		}},
		{"error", func(*wire.ReadResp) (wire.Msg, error) {
			return nil, &wire.Error{Text: "landing test: read refused"}
		}, func(int) string { return "landing test: read refused" }},
	} {
		t.Run(tc.name+"/pipe", func(t *testing.T) {
			c := newCluster(t, 5)
			f, err := c.NewClient().Create("bad", 5, su, wire.Raid5)
			must(t, err)
			g := f.Geometry()
			ref := pattern(int(4*g.StripeSize()), 3)
			mustWrite(t, f, ref, 0)

			var mangling atomic.Bool
			cl := c.clientWrapping(func(i int, h rpc.Handler) rpc.Handler {
				return func(m wire.Msg) (wire.Msg, error) {
					resp, err := h(m)
					if _, ok := m.(*wire.Read); !ok || i != bad || !mangling.Load() || err != nil {
						return resp, err
					}
					return tc.mangle(resp.(*wire.ReadResp))
				}
			})
			f, err = cl.Open("bad")
			must(t, err)
			mangling.Store(true)

			// The healthy read of the whole file: all of server 1's units.
			want := tc.want(int(unitsOn(g.UnitsIn(int64(len(ref))), g.Servers, bad) * su))
			if _, err := f.ReadAt(make([]byte, len(ref)), 0); err == nil || err.Error() != want {
				t.Fatalf("read: %v, want %q", err, want)
			}
			// An RMW straddling units 1 and 2 reads 1 old byte from server 1.
			want = tc.want(1)
			if _, err := f.WriteAt([]byte{1, 2}, 2*su-1); err == nil || err.Error() != want {
				t.Fatalf("rmw: %v, want %q", err, want)
			}
		})
	}
}

// unitsOn counts the units of [0, units) server s holds.
func unitsOn(units int64, servers, s int) int64 {
	n := units / int64(servers)
	if int64(s) < units%int64(servers) {
		n++
	}
	return n
}

// clientWrapping attaches a client whose requests to server i go through
// wrap(i, handler), over its own RPC connection.
func (c *Cluster) clientWrapping(wrap func(i int, h rpc.Handler) rpc.Handler) *client.Client {
	callers := make([]client.Caller, len(c.servers))
	for i := range c.servers {
		callers[i] = c.dial(wrap(i, c.handler(i)), nil, nil)
	}
	mgrs := make([]client.Caller, len(c.mgrs))
	for i := range c.mgrs {
		mgrs[i] = c.dial(c.mgrHandler(i), nil, nil)
	}
	cl := client.NewMulti(mgrs, callers)
	cl.SetAblation(c.Ablation)
	return cl
}
