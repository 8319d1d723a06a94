package meta

import (
	"strings"
	"testing"

	"csar/internal/wire"
)

func call(t *testing.T, m *Manager, msg wire.Msg) wire.Msg {
	t.Helper()
	resp, err := m.Handle(msg)
	if err != nil {
		t.Fatalf("%T: %v", msg, err)
	}
	return resp
}

func TestCreateOpenLifecycle(t *testing.T) {
	m := New(8, nil)
	cr := call(t, m, &wire.Create{Name: "a", Servers: 4, StripeUnit: 64, Scheme: wire.Raid5}).(*wire.CreateResp)
	if cr.Ref.ID == 0 || cr.Ref.Servers != 4 || cr.Ref.Scheme != wire.Raid5 {
		t.Fatalf("ref = %+v", cr.Ref)
	}
	or := call(t, m, &wire.Open{Name: "a"}).(*wire.OpenResp)
	if or.Ref != cr.Ref || or.Size != 0 {
		t.Fatalf("open = %+v", or)
	}
	// IDs are unique and increasing.
	cr2 := call(t, m, &wire.Create{Name: "b", Servers: 4, StripeUnit: 64, Scheme: wire.Raid0}).(*wire.CreateResp)
	if cr2.Ref.ID == cr.Ref.ID {
		t.Fatal("duplicate file IDs")
	}
}

func TestCreateValidation(t *testing.T) {
	m := New(4, nil)
	cases := []wire.Create{
		{Name: "", Servers: 2, StripeUnit: 64, Scheme: wire.Raid0},        // empty name
		{Name: "x", Servers: 0, StripeUnit: 64, Scheme: wire.Raid0},       // no servers
		{Name: "x", Servers: 2, StripeUnit: 0, Scheme: wire.Raid0},        // no stripe unit
		{Name: "x", Servers: 2, StripeUnit: 64, Scheme: wire.Raid5},       // parity needs 3
		{Name: "x", Servers: 2, StripeUnit: 64, Scheme: wire.Hybrid},      // parity needs 3
		{Name: "x", Servers: 9, StripeUnit: 64, Scheme: wire.Raid0},       // exceeds cluster
		{Name: "x", Servers: 3, StripeUnit: 64, Scheme: wire.Scheme(4)},   // retired (was raid5-nolock)
		{Name: "x", Servers: 3, StripeUnit: 64, Scheme: wire.Scheme(5)},   // retired (was raid5-npc)
		{Name: "x", Servers: 3, StripeUnit: 64, Scheme: wire.Scheme(7)},   // unknown
		{Name: "x", Servers: 3, StripeUnit: 64, Scheme: wire.Scheme(200)}, // unknown
		{Name: "x2", Servers: 2, StripeUnit: 64, Scheme: wire.Raid1},      // ok (control)
		{Name: "x3", Servers: 1, StripeUnit: 64, Scheme: wire.Raid0},      // ok (control)
	}
	for i, c := range cases {
		_, err := m.Handle(&c)
		wantErr := i < 10
		if wantErr && err == nil {
			t.Errorf("case %d (%+v): accepted", i, c)
		}
		if !wantErr && err != nil {
			t.Errorf("case %d (%+v): rejected: %v", i, c, err)
		}
	}
}

func TestDuplicateCreate(t *testing.T) {
	m := New(4, nil)
	call(t, m, &wire.Create{Name: "a", Servers: 2, StripeUnit: 64, Scheme: wire.Raid0})
	if _, err := m.Handle(&wire.Create{Name: "a", Servers: 2, StripeUnit: 64, Scheme: wire.Raid0}); err == nil {
		t.Fatal("duplicate create accepted")
	}
}

func TestSetSizeMaxSemantics(t *testing.T) {
	m := New(4, nil)
	cr := call(t, m, &wire.Create{Name: "a", Servers: 2, StripeUnit: 64, Scheme: wire.Raid0}).(*wire.CreateResp)
	call(t, m, &wire.SetSize{ID: cr.Ref.ID, Size: 100})
	call(t, m, &wire.SetSize{ID: cr.Ref.ID, Size: 50}) // lower report ignored
	or := call(t, m, &wire.Open{Name: "a"}).(*wire.OpenResp)
	if or.Size != 100 {
		t.Fatalf("size = %d, want 100 (max of reports)", or.Size)
	}
	if _, err := m.Handle(&wire.SetSize{ID: 999, Size: 1}); err == nil {
		t.Fatal("SetSize for unknown id accepted")
	}
}

func TestRemoveAndList(t *testing.T) {
	m := New(4, nil)
	call(t, m, &wire.Create{Name: "b", Servers: 2, StripeUnit: 64, Scheme: wire.Raid0})
	call(t, m, &wire.Create{Name: "a", Servers: 2, StripeUnit: 64, Scheme: wire.Raid0})
	lr := call(t, m, &wire.List{}).(*wire.ListResp)
	if len(lr.Names) != 2 || lr.Names[0] != "a" || lr.Names[1] != "b" {
		t.Fatalf("list = %v (want sorted)", lr.Names)
	}
	call(t, m, &wire.Remove{Name: "a"})
	if _, err := m.Handle(&wire.Open{Name: "a"}); err == nil {
		t.Fatal("open after remove succeeded")
	}
	if _, err := m.Handle(&wire.Remove{Name: "a"}); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestServerList(t *testing.T) {
	addrs := []string{"h1:1", "h2:2"}
	m := New(2, addrs)
	sl := call(t, m, &wire.ServerList{}).(*wire.ServerListResp)
	if strings.Join(sl.Addrs, ",") != "h1:1,h2:2" {
		t.Fatalf("addrs = %v", sl.Addrs)
	}
	// The response is a copy; mutating it does not affect the manager.
	sl.Addrs[0] = "evil"
	sl2 := call(t, m, &wire.ServerList{}).(*wire.ServerListResp)
	if sl2.Addrs[0] != "h1:1" {
		t.Fatal("server list aliased internal state")
	}
}

func TestUnsupportedMessage(t *testing.T) {
	m := New(2, nil)
	if _, err := m.Handle(&wire.ReadResp{}); err == nil {
		t.Fatal("unsupported message accepted")
	}
}

func TestPing(t *testing.T) {
	m := New(2, nil)
	if _, ok := call(t, m, &wire.Ping{}).(*wire.OK); !ok {
		t.Fatal("ping did not return OK")
	}
}
