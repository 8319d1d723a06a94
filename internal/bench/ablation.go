package bench

import (
	"fmt"
	"io"

	"csar"
	"csar/internal/workload"
)

func init() {
	register(Experiment{"ablate-su", "Ablation: stripe-unit size vs Hybrid storage and bandwidth", ablateStripeUnit})
	register(Experiment{"ablate-compact", "Ablation: Section 6.7 overflow compaction", ablateCompact})
	register(Experiment{"ablate-lock", "Ablation: parity-lock overhead vs number of contending clients", ablateLock})
}

// ablateStripeUnit quantifies the design trade-off Section 6.7 discusses:
// larger stripe units mean fewer full-stripe writes and more
// (unit-granular) overflow fragmentation under the Hybrid scheme. It runs
// the FLASH-like small-write workload at several stripe units and reports
// Hybrid's storage overhead (vs RAID1's fixed 2x) and its modeled write
// bandwidth.
func ablateStripeUnit(cfg Config, w io.Writer) error {
	const servers = 8
	total := cfg.scaled(45<<20, 2<<20)

	t := &Table{
		Title:  "Ablation: Hybrid vs stripe unit, FLASH-like small writes",
		Header: []string{"stripe-unit", "hybrid storage (xRAID0)", "raid1 storage (xRAID0)", "hybrid MB/s"},
	}
	for _, su := range []int64{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		ratios := map[csar.Scheme]float64{}
		for _, scheme := range []csar.Scheme{csar.Raid0, csar.Raid1, csar.Hybrid} {
			cl, err := cfg.newUntimedCluster(servers)
			if err != nil {
				return err
			}
			n, err := workload.FlashIO(workload.Env{Cluster: cl, Scheme: scheme, StripeUnit: su}, "f", 4, total)
			if err != nil {
				cl.Close()
				return err
			}
			_ = n
			ratios[scheme] = float64(cl.TotalStorage())
			cl.Close()
		}
		bw, err := cfg.runTimed(servers, func(cl *csar.Cluster) (int64, error) {
			return workload.FlashIO(workload.Env{Cluster: cl, Scheme: csar.Hybrid, StripeUnit: su}, "f", 4, total)
		})
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%dK", su>>10),
			ratio(ratios[csar.Hybrid]/ratios[csar.Raid0]),
			ratio(ratios[csar.Raid1]/ratios[csar.Raid0]),
			mb(bw))
	}
	t.Notes = append(t.Notes,
		"paper (Table 2): smaller stripe units cut Hybrid's overflow fragmentation below RAID1's 2x")
	_, err := t.WriteTo(w)
	return err
}

// ablateCompact measures the Section 6.7 extension: storage before and
// after compacting a Hybrid file built by small writes.
func ablateCompact(cfg Config, w io.Writer) error {
	const servers = 6
	cl, err := cfg.newUntimedCluster(servers)
	if err != nil {
		return err
	}
	defer cl.Close()
	client := cl.NewClient()
	f, err := client.Create("c", csar.FileOptions{Scheme: csar.Hybrid, StripeUnit: 16 << 10})
	if err != nil {
		return err
	}
	total := cfg.scaled(64<<20, 2<<20)
	buf := make([]byte, 10_000) // sub-unit writes: everything lands in overflow
	for off := int64(0); off < total; off += int64(len(buf)) {
		if _, err := f.WriteAt(buf, off); err != nil {
			return err
		}
	}
	before, _, err := f.StorageBytes()
	if err != nil {
		return err
	}
	if err := f.Compact(); err != nil {
		return err
	}
	after, _, err := f.StorageBytes()
	if err != nil {
		return err
	}
	t := &Table{
		Title:  "Ablation: overflow compaction (Section 6.7 extension)",
		Header: []string{"phase", "stored (xdata)"},
	}
	t.AddRow("after small writes", ratio(float64(before)/float64(total)))
	t.AddRow("after Compact", ratio(float64(after)/float64(total)))
	t.Notes = append(t.Notes,
		fmt.Sprintf("RAID5 long-term ratio for %d servers is %.2f; the paper: \"the long-term storage of the Hybrid scheme would be the same as the RAID5 scheme\"",
			servers, float64(servers)/float64(servers-1)))
	_, err = t.WriteTo(w)
	return err
}

// ablateLock extends Figure 3 into a sweep: locking overhead as the number
// of clients contending for one stripe grows.
func ablateLock(cfg Config, w io.Writer) error {
	const servers = 6 // 5 data blocks per stripe
	rounds := int(cfg.scaled(2048, 32))
	t := &Table{
		Title:  "Ablation: parity-lock cost vs contending clients (one shared stripe)",
		Header: []string{"clients", "raid5 MB/s", "no-lock MB/s", "overhead"},
	}
	for _, clients := range []int{1, 2, 3, 5} {
		var bws [2]float64 // raid5, then without the lock
		for i, col := range []column{{"raid5", csar.Raid5, 0}, r5NoLock} {
			bw, err := cfg.runTimed(servers, func(cl *csar.Cluster) (int64, error) {
				return workload.Contention(col.env(cl, 64<<10), "f", clients, rounds)
			})
			if err != nil {
				return err
			}
			bws[i] = bw
		}
		r5, nolock := bws[0], bws[1]
		t.AddRow(fmt.Sprintf("%d", clients), mb(r5), mb(nolock),
			fmt.Sprintf("%.0f%%", (1-r5/nolock)*100))
	}
	t.Notes = append(t.Notes,
		"uncontended (1 client) the lock costs little; the serialized window grows with contention")
	_, err := t.WriteTo(w)
	return err
}
