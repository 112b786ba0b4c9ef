package repro

import (
	"os/exec"
	"strings"
	"testing"
)

// TestCLIsDoNotLinkNetHTTP guards the suite CLIs' process start: a
// fresh seda-sweep per sample is what the suite workloads time, and
// linking net/http (through a shared package that grew an HTTP
// dependency) measurably raises a Go binary's start-up cost. The HTTP
// serving code belongs in internal/serve and internal/cluster, which
// these commands do not import.
func TestCLIsDoNotLinkNetHTTP(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go not on PATH")
	}
	out, err := exec.Command(goBin, "list", "-deps", "./cmd/seda-sweep", "./cmd/seda-sim").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "net/http" {
			t.Fatal("seda-sweep or seda-sim links net/http; keep HTTP code out of the packages they import")
		}
	}
}
