package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
	"summarycache/internal/icp"
)

// These tests exercise the protocol's fault-tolerance claims: update
// messages carry absolute set/clear records precisely so that "loss of
// previous update messages would [not] have cascading effects" and the
// stream can ride "a unreliable multicast protocol" (§VI-A).

// driveDirectory applies a random add/remove workload and returns the
// update messages a node would emit, chunked like the wire protocol.
func driveDirectory(t testing.TB, seed int64, ops int) (*Directory, []icp.Message) {
	t.Helper()
	d, err := NewDirectory(DirectoryConfig{ExpectedDocs: 500, UpdateThreshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	live := map[string]bool{}
	var msgs []icp.Message
	reqNum := uint32(1)
	for i := 0; i < ops; i++ {
		if len(live) == 0 || rng.Intn(3) != 0 {
			k := fmt.Sprintf("http://h%d/d%d", rng.Intn(40), rng.Intn(800))
			if !live[k] {
				live[k] = true
				d.Insert(k)
			}
		} else {
			for k := range live {
				delete(live, k)
				d.Remove(k)
				break
			}
		}
		if d.ShouldPublish() {
			chunk := icp.SplitUpdate(reqNum, d.Spec(), uint32(d.Bits()), d.Drain(), 50)
			reqNum += uint32(len(chunk))
			msgs = append(msgs, chunk...)
		}
	}
	chunk := icp.SplitUpdate(reqNum, d.Spec(), uint32(d.Bits()), d.Drain(), 50)
	msgs = append(msgs, chunk...)
	return d, msgs
}

// replicaFromMessages applies msgs (possibly a lossy subset) to a fresh
// PeerTable and returns the replica's candidate function.
func replicaFromMessages(t testing.TB, msgs []icp.Message) *PeerTable {
	t.Helper()
	pt := NewPeerTable()
	for _, m := range msgs {
		if err := pt.ApplyUpdate("p", &m.Update, false); err != nil {
			t.Fatal(err)
		}
	}
	return pt
}

// Lossless delivery reproduces the local filter exactly.
func TestUpdateStreamLossless(t *testing.T) {
	d, msgs := driveDirectory(t, 1, 3000)
	pt := replicaFromMessages(t, msgs)
	local := localBitFilter(t, d)
	replica := replicaFilter(t, pt, d)
	if string(local.Snapshot()) != string(replica.Snapshot()) {
		t.Fatal("lossless replica diverged from local filter")
	}
}

// Duplicated and reordered-within-independence delivery is harmless:
// replaying every message twice yields the identical replica. (Absolute
// records are idempotent; full ordering robustness would require
// per-position versions, which the paper's protocol does not claim.)
func TestUpdateStreamDuplication(t *testing.T) {
	d, msgs := driveDirectory(t, 2, 3000)
	doubled := make([]icp.Message, 0, 2*len(msgs))
	for _, m := range msgs {
		doubled = append(doubled, m, m)
	}
	pt := replicaFromMessages(t, doubled)
	local := localBitFilter(t, d)
	replica := replicaFilter(t, pt, d)
	if string(local.Snapshot()) != string(replica.Snapshot()) {
		t.Fatal("duplicated delivery diverged")
	}
}

// Message loss corrupts only the bits the lost messages carried — no
// cascade — and a subsequent full-state update heals the replica entirely.
func TestUpdateStreamLossAndRecovery(t *testing.T) {
	d, msgs := driveDirectory(t, 3, 3000)
	rng := rand.New(rand.NewSource(99))
	var delivered []icp.Message
	lost := 0
	for _, m := range msgs {
		if rng.Float64() < 0.3 {
			lost++
			continue
		}
		delivered = append(delivered, m)
	}
	if lost == 0 {
		t.Fatal("test needs losses")
	}
	pt := replicaFromMessages(t, delivered)
	local := localBitFilter(t, d)
	replica := replicaFilter(t, pt, d)

	// Bound the damage: differing bits ≤ bits carried by lost messages.
	var lostBits int
	for _, m := range msgs {
		if !contains(delivered, m.ReqNum) {
			lostBits += len(m.Update.Flips)
		}
	}
	if diff := snapshotDiffBits(local, replica); diff > lostBits {
		t.Fatalf("loss cascaded: %d bits differ, only %d were lost", diff, lostBits)
	}

	// Recovery: a full-state update (reset + snapshot flips) heals.
	full := &icp.DirUpdate{Spec: d.Spec(), Bits: uint32(d.Bits()), Flips: d.SnapshotFlips()}
	if err := pt.ApplyUpdate("p", full, true); err != nil {
		t.Fatal(err)
	}
	replica = replicaFilter(t, pt, d)
	if string(local.Snapshot()) != string(replica.Snapshot()) {
		t.Fatal("full-state update did not heal the replica")
	}
}

// Property: under arbitrary loss patterns, applying any subset of the
// update stream never panics and never produces an out-of-range state,
// and full-state recovery always converges.
func TestQuickLossRecoveryConverges(t *testing.T) {
	prop := func(seed int64, lossPct uint8) bool {
		d, msgs := driveDirectory(t, seed, 600)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		pt := NewPeerTable()
		p := float64(lossPct%90) / 100
		for _, m := range msgs {
			if rng.Float64() < p {
				continue
			}
			if err := pt.ApplyUpdate("p", &m.Update, false); err != nil {
				return false
			}
		}
		full := &icp.DirUpdate{Spec: d.Spec(), Bits: uint32(d.Bits()), Flips: d.SnapshotFlips()}
		if err := pt.ApplyUpdate("p", full, true); err != nil {
			return false
		}
		local := localBitFilter(t, d)
		replica := replicaFilter(t, pt, d)
		return string(local.Snapshot()) == string(replica.Snapshot())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// --- helpers ---

func contains(msgs []icp.Message, reqNum uint32) bool {
	for _, m := range msgs {
		if m.ReqNum == reqNum {
			return true
		}
	}
	return false
}

// localBitFilter reconstructs the directory's current bit filter through
// its snapshot flips (the same path a bootstrap uses).
func localBitFilter(t testing.TB, d *Directory) *bloom.Filter {
	t.Helper()
	f := bloom.MustNewFilter(d.Bits(), d.Spec())
	if err := f.Apply(d.SnapshotFlips()); err != nil {
		t.Fatal(err)
	}
	return f
}

// replicaFilter reads peer "p"'s replica filter directly (same package).
func replicaFilter(t testing.TB, pt *PeerTable, d *Directory) *bloom.Filter {
	t.Helper()
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	r := pt.reps["p"]
	if r.filter == nil {
		t.Fatal("replica missing")
	}
	return r.filter
}

func snapshotDiffBits(a, b *bloom.Filter) int {
	sa, sb := a.Snapshot(), b.Snapshot()
	diff := 0
	for i := range sa {
		x := sa[i] ^ sb[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	return diff
}

// The hash spec in every update allows the receiver to verify coherence;
// a peer that restarts with a different spec must be re-learned, not
// merged.
func TestSpecChangeIsolation(t *testing.T) {
	pt := NewPeerTable()
	u1 := &icp.DirUpdate{Spec: hashing.Spec{FunctionNum: 4, FunctionBits: 32}, Bits: 1024,
		Flips: []bloom.Flip{{Index: 3, Set: true}}}
	if err := pt.ApplyUpdate("p", u1, false); err != nil {
		t.Fatal(err)
	}
	u2 := &icp.DirUpdate{Spec: hashing.Spec{FunctionNum: 6, FunctionBits: 20}, Bits: 1024,
		Flips: []bloom.Flip{{Index: 5, Set: true}}}
	if err := pt.ApplyUpdate("p", u2, false); err != nil {
		t.Fatal(err)
	}
	pt.mu.RLock()
	f := pt.reps["p"].filter
	pt.mu.RUnlock()
	if f.OnesCount() != 1 {
		t.Fatalf("spec change merged old state: %d bits set", f.OnesCount())
	}
	if f.Spec() != u2.Spec {
		t.Fatalf("replica kept old spec %v", f.Spec())
	}
}
