package client

import (
	"fmt"

	"csar/internal/wire"
)

// This file is the client half of online scheme migration ("re-layout
// under writers"): the handles and manager calls internal/recovery needs
// while it re-encodes a file's bytes into a pinned shadow layout. The copy
// itself coordinates with foreground I/O as a background pass (pass.go):
// writes overlapping the region already copied are mirrored into the shadow
// layout, writes wholly ahead of the cursor go to the live layout only (the
// copy will reach them). Other clients' open Files keep the old layout after
// the cutover.

// FileForRelayout builds a gate-exempt file handle for a layout under
// migration: the shadow target of dual-writes (issued with the pass gate
// already held shared) and the engine's source/target handles inside
// Pass.Exclusive sections. An exempt handle's caller already holds the gate,
// so the handle touches it on no path — which is what makes those nested
// uses, degraded ones included, deadlock-free.
func (c *Client) FileForRelayout(ref wire.FileRef, size int64) (*File, error) {
	f, err := c.fileFor(ref, size)
	if err != nil {
		return nil, err
	}
	f.gateExempt = true
	return f, nil
}

// AdoptRef swaps the file's layout identity in place — the migration
// coordinator calls it inside Pass.Exclusive, after the manager commits
// the cutover, so every write that started before the swap drained through
// the gate and every later one plans against the new geometry. The logical
// size is unchanged by a migration, so f.size carries over.
func (f *File) AdoptRef(ref wire.FileRef) error { return f.setLayout(ref) }

// PinScheme asks the manager to pin a shadow layout for migrating the file
// to the target scheme; re-issuing a matching pin resumes it.
func (c *Client) PinScheme(fileID uint64, scheme wire.Scheme, parity uint8) (*wire.SetSchemeResp, error) {
	resp, err := c.mgrCall(&wire.SetScheme{ID: fileID, Scheme: scheme, Parity: parity})
	if err != nil {
		return nil, err
	}
	sr, ok := resp.(*wire.SetSchemeResp)
	if !ok {
		return nil, fmt.Errorf("client: unexpected set-scheme response %T", resp)
	}
	return sr, nil
}

// CommitScheme asks the manager to cut the file over to its pinned shadow
// layout; newID fences the commit against a superseded pin.
func (c *Client) CommitScheme(fileID, newID uint64) error {
	_, err := c.mgrCall(&wire.CommitScheme{ID: fileID, NewID: newID})
	return err
}

// AbortScheme asks the manager to drop the file's pinned shadow layout.
func (c *Client) AbortScheme(fileID, newID uint64) error {
	_, err := c.mgrCall(&wire.AbortScheme{ID: fileID, NewID: newID})
	return err
}

// OpenInfo fetches a file's raw metadata — live layout, logical size, and
// any pinned migration target — without building a File. The migration
// orchestrator uses it to resume or abort a pin found at the manager.
func (c *Client) OpenInfo(name string) (*wire.OpenResp, error) {
	resp, err := c.mgrCall(&wire.Open{Name: name})
	if err != nil {
		return nil, err
	}
	or, ok := resp.(*wire.OpenResp)
	if !ok {
		return nil, fmt.Errorf("client: unexpected open response %T", resp)
	}
	return or, nil
}
