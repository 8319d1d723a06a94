package journal

import (
	"encoding/binary"
	"fmt"
)

// A seal is u8 sealTag | u64 generation, sealLen bytes.
const sealTag, sealLen = 4, 9

func isSeal(p []byte) bool { return len(p) == sealLen && p[0] == sealTag }

// refuseSeals panics on an owner record that replay would take for a seal.
func refuseSeals(payloads [][]byte) {
	for _, b := range payloads {
		if isSeal(b) {
			panic("journal: record in seal form")
		}
	}
}

// Pair is one journal kept in two Logs (see the package comment). Outside a
// Compact one log is always empty. Like a Log, it is not safe for
// concurrent use.
type Pair struct {
	logs [2]*Log
	cur  int    // the log appends go to
	gen  uint64 // logs[cur]'s generation; 0 when unsealed
}

// OpenPair opens the pair in files, of the given sizes, and calls each with
// every record of the log holding the higher generation, in append order.
// The other log is emptied: it is superseded, or a Compact the crash cut
// short. An error names the log it came from by index.
func OpenPair(files [2]File, sizes [2]int64, each func(payload []byte) error) (*Pair, error) {
	var p Pair
	var recs [2][][]byte
	var gens [2]uint64 // a seal's generation is never 0
	for i := range files {
		l, err := Open(files[i], sizes[i], func(b []byte) error {
			if isSeal(b) {
				gens[i] = binary.LittleEndian.Uint64(b[1:])
			} else {
				recs[i] = append(recs[i], b)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("journal: log %d of pair: %w", i, err)
		}
		p.logs[i] = l
	}
	if gens[1] > gens[0] {
		p.cur = 1
	}
	p.gen = gens[p.cur]
	if err := p.empty(1 - p.cur); err != nil {
		return nil, err
	}
	for _, r := range recs[p.cur] {
		if err := each(r); err != nil {
			return nil, fmt.Errorf("journal: log %d of pair: %w", p.cur, err)
		}
	}
	return &p, nil
}

// Append appends one frame per payload to the current log, synced when
// sync is set (see Log.Append and Log.AppendUnsynced). A payload in the
// seal's form is a bug in its owner, and panics.
func (p *Pair) Append(sync bool, payloads ...[]byte) error {
	refuseSeals(payloads)
	if sync {
		return p.logs[p.cur].Append(payloads...)
	}
	return p.logs[p.cur].AppendUnsynced(payloads...)
}

// Compact replaces the pair's records with live, one frame per payload: it
// writes them into the other log followed by a seal of the next generation,
// then empties the current one. With nothing live it empties both, the
// non-current first, and appends return to the first log unsealed. A
// payload in the seal's form panics, as in Append.
func (p *Pair) Compact(live ...[]byte) error {
	if len(live) == 0 {
		for _, i := range [2]int{1 - p.cur, p.cur} {
			if err := p.empty(i); err != nil {
				return err
			}
		}
		p.cur, p.gen = 0, 0
		return nil
	}
	refuseSeals(live)
	next, gen := 1-p.cur, p.gen+1
	seal := binary.LittleEndian.AppendUint64([]byte{sealTag}, gen)
	if err := p.logs[next].Rewrite(append(live, seal)...); err != nil {
		return err
	}
	old := p.cur
	p.cur, p.gen = next, gen
	return p.empty(old)
}

// empty truncates logs[i] to zero bytes unless it already is: an empty
// Rewrite would still sync.
func (p *Pair) empty(i int) error {
	if p.logs[i].Size() == 0 {
		return nil
	}
	return p.logs[i].Rewrite()
}

// Size returns the current log's length in bytes.
func (p *Pair) Size() int64 { return p.logs[p.cur].Size() }
