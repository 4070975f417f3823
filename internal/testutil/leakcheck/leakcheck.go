// Package leakcheck verifies that a test leaves no goroutines behind.
// It is stdlib-only: a snapshot of live goroutine stacks before the test
// body runs is diffed against the stacks at cleanup time, with a short
// retry window so goroutines that are mid-shutdown get a chance to exit.
//
// Usage, first thing in the test body so the cleanup runs last:
//
//	func TestSoak(t *testing.T) {
//		leakcheck.Install(t)
//		...
//	}
//
// or once per package, covering every test, from TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// Goroutines belonging to the runtime, the testing framework, or
// net/http's shared transport pool are filtered as benign; everything
// else that outlives the test is reported with its full stack.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Snapshot records the goroutines alive at one instant, keyed by ID.
type Snapshot struct {
	ids map[int64]bool
}

// Take captures the current goroutine set.
func Take() Snapshot {
	ids := map[int64]bool{}
	for _, g := range stacks() {
		ids[g.id] = true
	}
	return Snapshot{ids: ids}
}

// Install takes a snapshot now and registers a cleanup that fails the
// test if extra goroutines survive. Call it before any other t.Cleanup
// registration (cleanups run LIFO, so the first registered runs last,
// after the test's own teardown has stopped its goroutines).
func Install(t testing.TB) {
	t.Helper()
	snap := Take()
	t.Cleanup(func() { Check(t, snap) })
}

// Check fails t if goroutines not present in snap (and not benign) are
// still running. It retries for up to five seconds: shutdown is
// signalled before it completes, so the first look often races the
// final returns.
func Check(t testing.TB, snap Snapshot) {
	t.Helper()
	leaked := wait(snap, 5*time.Second)
	for _, g := range leaked {
		t.Errorf("leaked goroutine %d [%s]:\n%s", g.id, g.state, g.stack)
	}
}

// Main runs a package's tests and exits with their status, or non-zero
// when a goroutine they started outlives them all: it snapshots the
// goroutines before m.Run, waits out shutdown as Check does, and prints
// every survivor's stack to stderr. Call it from TestMain.
func Main(m *testing.M) {
	snap := Take()
	code := m.Run()
	leaked := wait(snap, 5*time.Second)
	for _, g := range leaked {
		fmt.Fprintf(os.Stderr, "leaked goroutine %d [%s]:\n%s\n\n", g.id, g.state, g.stack)
	}
	if len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: leakcheck: %d goroutine(s) outlived the package's tests\n", len(leaked))
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// wait polls with backoff until no leaks remain or the deadline passes,
// returning whatever is still alive.
func wait(snap Snapshot, timeout time.Duration) []goroutine {
	deadline := time.Now().Add(timeout)
	delay := time.Millisecond
	for {
		leaked := diff(snap)
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(delay)
		if delay < 100*time.Millisecond {
			delay *= 2
		}
	}
}

// diff returns the non-benign goroutines alive now that were not in snap.
func diff(snap Snapshot) []goroutine {
	var leaked []goroutine
	for _, g := range stacks() {
		if snap.ids[g.id] || benign(g) {
			continue
		}
		leaked = append(leaked, g)
	}
	return leaked
}

// goroutine is one parsed runtime.Stack block.
type goroutine struct {
	id    int64
	state string
	stack string
}

// stacks parses runtime.Stack(buf, true) output: blocks separated by
// blank lines, each headed "goroutine N [state]:".
func stacks() []goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []goroutine
	for _, block := range strings.Split(string(buf), "\n\n") {
		g, ok := parseBlock(block)
		if ok {
			out = append(out, g)
		}
	}
	return out
}

// parseBlock extracts the ID and state from one stack block whose
// header reads `goroutine N [state]:` (blocked states carry a duration,
// "[chan receive, 2 minutes]").
func parseBlock(block string) (goroutine, bool) {
	block = strings.TrimSpace(block)
	header, rest, _ := strings.Cut(block, "\n")
	numAndState, ok := strings.CutPrefix(header, "goroutine ")
	if !ok {
		return goroutine{}, false
	}
	num, state, ok := strings.Cut(numAndState, " [")
	if !ok {
		return goroutine{}, false
	}
	var id int64
	if _, err := fmt.Sscanf(num, "%d", &id); err != nil {
		return goroutine{}, false
	}
	state, _, _ = strings.Cut(strings.TrimSuffix(state, "]:"), ",")
	return goroutine{id: id, state: state, stack: rest}, true
}

// benign reports whether a goroutine belongs to infrastructure that
// legitimately outlives a single test: the runtime, the testing
// framework itself, signal handling, and net/http's idle connection
// pool (persistConn readers/writers park until the global transport
// closes them).
func benign(g goroutine) bool {
	if g.state == "running" && strings.Contains(g.stack, "runtime.Stack") {
		return true // the snapshotting goroutine itself
	}
	for _, marker := range []string{
		"testing.(*T).Run",
		"testing.(*M).",
		"testing.tRunner",
		"testing.runTests",
		"os/signal.signal_recv",
		"os/signal.loop",
		"runtime.goexit0",
		"runtime.gc",
		"runtime.bgsweep",
		"runtime.bgscavenge",
		"net/http.(*persistConn).readLoop",
		"net/http.(*persistConn).writeLoop",
		"net/http.(*Transport).dialConn",
		"net/http.setRequestCancel",
	} {
		if strings.Contains(g.stack, marker) {
			return true
		}
	}
	return false
}
