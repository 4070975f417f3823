package leakcheck

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) { Main(m) }

func TestParseBlock(t *testing.T) {
	cases := []struct {
		in    string
		id    int64
		state string
		ok    bool
	}{
		{"goroutine 1 [running]:\nmain.main()\n\t/x/main.go:1 +0x1", 1, "running", true},
		{"goroutine 42 [chan receive, 3 minutes]:\nx.y()\n\t/x/y.go:9", 42, "chan receive", true},
		{"goroutine 7 [select]:\na.b()", 7, "select", true},
		{"not a goroutine header", 0, "", false},
		{"", 0, "", false},
	}
	for _, c := range cases {
		g, ok := parseBlock(c.in)
		if ok != c.ok || g.id != c.id || g.state != c.state {
			t.Errorf("parseBlock(%q) = {id:%d state:%q} ok=%v, want {id:%d state:%q} ok=%v",
				c.in, g.id, g.state, ok, c.id, c.state, c.ok)
		}
	}
}

// TestNoFalsePositive: a snapshot followed immediately by a diff must be
// empty — the test harness's own goroutines are either in the snapshot
// or filtered as benign.
func TestNoFalsePositive(t *testing.T) {
	snap := Take()
	if leaked := wait(snap, 2*time.Second); len(leaked) != 0 {
		for _, g := range leaked {
			t.Errorf("false positive: goroutine %d [%s]:\n%s", g.id, g.state, g.stack)
		}
	}
}

// TestDetectsLeak: a goroutine parked on a never-closed channel must
// show up in the diff, with its blocking site in the reported stack.
func TestDetectsLeak(t *testing.T) {
	snap := Take()
	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		<-block
	}()
	<-started

	leaked := wait(snap, 100*time.Millisecond)
	if len(leaked) != 1 {
		t.Fatalf("got %d leaked goroutines, want 1: %+v", len(leaked), leaked)
	}
	if !strings.Contains(leaked[0].stack, "leakcheck.TestDetectsLeak") {
		t.Errorf("leak stack does not point at the leaking function:\n%s", leaked[0].stack)
	}

	close(block)
	if leaked := wait(snap, 2*time.Second); len(leaked) != 0 {
		t.Errorf("leak still reported after goroutine exit: %+v", leaked)
	}
}

// TestMainFailsOnLeak runs TestLeakForMain in a child test process: the
// goroutine it leaves behind must make Main print its stack and exit
// non-zero although the test itself passed.
func TestMainFailsOnLeak(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestLeakForMain$")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("child exited with %v, want a non-zero status:\n%s", err, out)
	}
	for _, want := range []string{"PASS\n", "leakcheck.TestLeakForMain", "FAIL: leakcheck: 1 goroutine(s) outlived the package's tests"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("child output lacks %q:\n%s", want, out)
		}
	}
}

// TestLeakForMain leaks a goroutine parked on a channel nothing closes. It
// runs only when asked for by name, as TestMainFailsOnLeak does.
func TestLeakForMain(t *testing.T) {
	if flag.Lookup("test.run").Value.String() != "^TestLeakForMain$" {
		t.Skip("run only as TestMainFailsOnLeak's child")
	}
	block := make(chan struct{})
	go func() { <-block }()
}

// TestWaitRidesOutSlowShutdown: a goroutine that exits shortly after
// the check starts must not be reported — wait's retry window absorbs
// shutdown races.
func TestWaitRidesOutSlowShutdown(t *testing.T) {
	snap := Take()
	go time.Sleep(150 * time.Millisecond)
	if leaked := wait(snap, 3*time.Second); len(leaked) != 0 {
		t.Errorf("slow-exiting goroutine reported as leak: %+v", leaked)
	}
}
