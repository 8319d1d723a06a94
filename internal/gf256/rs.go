package gf256

import (
	"fmt"
	"sync"
)

// RS is a systematic Reed-Solomon code over GF(256) with k data units and m
// parity units per stripe. Any k of the k+m units suffice to recover the
// rest, so the code tolerates any m simultaneous erasures.
//
// The coding matrix is [I; C]: identity on top (data is stored verbatim),
// and an m×k Cauchy matrix C[j][i] = 1/(x_j+y_i) over distinct field points
// below. Every square submatrix of a Cauchy matrix is invertible, which is
// exactly the MDS condition for the systematic code: losing any d data and
// p parity units (d+p <= m) leaves a decodable system because the d×d
// Cauchy submatrix pairing the surviving parity rows with the lost data
// columns is invertible. Each column is then scaled (submatrix
// invertibility survives nonzero row/column scaling) so parity row 0 is
// all ones — parity unit 0 of RS(k,m) is byte-identical to the RAID5 XOR
// parity, and its encode runs at XOR speed.
type RS struct {
	K, M int
	// rows is the full (k+m)×k coding matrix; rows[0..k-1] form the
	// identity, rows[k..k+m-1] are the parity coefficient rows.
	rows [][]byte

	mu     sync.Mutex
	decode map[decodeKey][]byte // see decodeRow
}

// rsCache memoizes codes by (k,m): every file with the same shape shares
// one immutable matrix.
var (
	rsMu    sync.Mutex
	rsCache = map[[2]int]*RS{}
)

// NewRS returns the RS(k,m) code, building and caching its coding matrix.
// k must be at least 1, m at least 1, and k+m at most 256 (the field has
// only 256 distinct evaluation points).
func NewRS(k, m int) (*RS, error) {
	if k < 1 || m < 1 || k+m > 256 {
		return nil, fmt.Errorf("gf256: invalid RS shape k=%d m=%d (need k>=1, m>=1, k+m<=256)", k, m)
	}
	key := [2]int{k, m}
	rsMu.Lock()
	defer rsMu.Unlock()
	if r, ok := rsCache[key]; ok {
		return r, nil
	}
	rows := make([][]byte, k+m)
	for i := 0; i < k; i++ {
		rows[i] = make([]byte, k)
		rows[i][i] = 1
	}
	// Cauchy block over parity points x_j = k+j and data points y_i = i
	// (addition is XOR, so distinctness is all that matters), with column i
	// scaled by the inverse of its row-0 entry to make row 0 all ones.
	for j := 0; j < m; j++ {
		rows[k+j] = make([]byte, k)
		for i := 0; i < k; i++ {
			c := Inv(byte(k+j) ^ byte(i))
			rows[k+j][i] = Mul(c, byte(k)^byte(i)) // = c / C[0][i]
		}
	}
	r := &RS{K: k, M: m, rows: rows, decode: map[decodeKey][]byte{}}
	rsCache[key] = r
	return r, nil
}

// ParityRow returns the coefficient row of parity unit j (0 <= j < m):
// parity_j = sum_i row[i] * data_i. The returned slice is shared and must
// not be modified.
func (r *RS) ParityRow(j int) []byte { return r.rows[r.K+j] }

// Coef returns the coefficient of data unit i in parity unit j. RMW parity
// deltas use it directly: parity_j ^= Coef(j,i) * (old_i XOR new_i).
func (r *RS) Coef(j, i int) byte { return r.rows[r.K+j][i] }

// EncodeInto computes all m parity units for one stripe of k equal-length
// data units. parity must hold m slices of the data unit length; each is
// zeroed and overwritten.
func (r *RS) EncodeInto(parity, data [][]byte) {
	if len(parity) != r.M || len(data) != r.K {
		panic(fmt.Sprintf("gf256: EncodeInto shape mismatch: %d parity %d data for RS(%d,%d)",
			len(parity), len(data), r.K, r.M))
	}
	for j := range r.M {
		combine(parity[j], r.ParityRow(j), data)
	}
}

// Reconstruct fills in the missing units of one stripe. units holds the
// k+m stripe units in code order (data 0..k-1, then parity 0..m-1);
// units[i] is nil for a lost unit and a slice of the unit length
// otherwise. Missing units are allocated, decoded by ReconstructInto from
// the same k present ones, and stored back into units only once all are
// done. It fails if fewer than k units are present.
func (r *RS) Reconstruct(units [][]byte) error {
	if len(units) != r.K+r.M {
		panic(fmt.Sprintf("gf256: Reconstruct got %d units for RS(%d,%d)", len(units), r.K, r.M))
	}
	var size int
	for _, u := range units {
		if u != nil {
			size = len(u)
		}
	}
	out := make([][]byte, len(units))
	for i, u := range units {
		if u != nil {
			continue
		}
		out[i] = make([]byte, size)
		if err := r.ReconstructInto(out[i], i, units); err != nil {
			return err
		}
	}
	for i, o := range out {
		if o != nil {
			units[i] = o
		}
	}
	return nil
}

// ReconstructInto decodes unit target (a code index: data 0..k-1, then
// parity k..k+m-1) of one stripe into dst from the first k present units of
// units, which is in code order with nil marking a unit that is lost or not
// to be used. Every present unit must have dst's length — any sub-range of
// the stripe's units, decoded byte for byte. A present target is copied.
//
// units and the bytes they hold are only read and nothing outside dst is
// written, so dst may be a slice of a buffer that also holds survivors,
// provided it overlaps none of them (dst is zeroed before the first source
// is folded in). With all k data units among the first k present, a parity
// target is its coefficient row's plain encode, the sum EncodeInto makes.
// Otherwise the decode row is the target's coding row times the inverse of
// the survivors' k×k submatrix, computed once per (survivors, target) and
// cached on the code, so a warm call allocates nothing.
func (r *RS) ReconstructInto(dst []byte, target int, units [][]byte) error {
	n := r.K + r.M
	if len(units) != n || target < 0 || target >= n {
		panic(fmt.Sprintf("gf256: ReconstructInto target %d of %d units for RS(%d,%d)", target, len(units), r.K, r.M))
	}
	if units[target] != nil {
		copy(dst, units[target])
		return nil
	}
	key := decodeKey{target: target}
	present, dataFirst := 0, true
	for i, u := range units {
		if u == nil || present == r.K {
			continue
		}
		key.used[i/64] |= 1 << (i % 64)
		present++
		dataFirst = dataFirst && i < r.K
	}
	if present < r.K {
		return fmt.Errorf("gf256: RS(%d,%d) stripe has only %d of %d units needed", r.K, r.M, present, r.K)
	}
	coef := r.rows[target]
	if !dataFirst {
		var err error
		if coef, err = r.decodeRow(key); err != nil {
			return err
		}
	}
	combine(dst, coef, units)
	return nil
}

// decodeKey names one decode: the set of survivor units it reads (a bit per
// code index) and the unit it produces.
type decodeKey struct {
	used   [4]uint64
	target int
}

// decodeRow returns the coefficients that produce key.target from the k
// survivors in key.used, in code order: the target's coding row times the
// inverse of the survivors' rows. Rows are cached for the life of the code;
// there is one per erasure pattern and target actually met.
func (r *RS) decodeRow(key decodeKey) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if row, ok := r.decode[key]; ok {
		return row, nil
	}
	sub := make([][]byte, 0, r.K)
	for i := range r.K + r.M {
		if key.used[i/64]&(1<<(i%64)) != 0 {
			sub = append(sub, r.rows[i])
		}
	}
	inv, err := matInvert(sub)
	if err != nil {
		return nil, fmt.Errorf("gf256: RS(%d,%d) decode: %w", r.K, r.M, err)
	}
	row := matMul([][]byte{r.rows[key.target]}, inv)[0]
	r.decode[key] = row
	return row, nil
}

// combine is the one coding kernel under encode and decode: it zeroes dst
// and folds coef[t] times the t-th non-nil unit of units into it, for each
// of the len(coef) coefficients.
func combine(dst, coef []byte, units [][]byte) {
	clear(dst)
	t := 0
	for _, u := range units {
		if t == len(coef) {
			break
		}
		if u != nil {
			MulAddSlice(coef[t], dst, u)
			t++
		}
	}
}
