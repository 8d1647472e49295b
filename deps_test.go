package repro

import (
	"os/exec"
	"strings"
	"testing"
)

// TestSimulatorLinksNoNetwork: the simulator layers import no net
// package, directly or transitively. Network code (the metrics HTTP
// server, the TCP shard transport) belongs to the CLIs and the
// distributed backends, so a binary or test that only simulates starts
// none of its background goroutines.
func TestSimulatorLinksNoNetwork(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	pkgs := []string{
		"repro/internal/sim", "repro/internal/system",
		"repro/internal/session", "repro/internal/experiment",
	}
	for _, pkg := range pkgs {
		out, err := exec.Command(goTool, "list", "-deps", pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		for _, dep := range strings.Fields(string(out)) {
			if dep == "net" || strings.HasPrefix(dep, "net/") {
				t.Errorf("%s imports %s", pkg, dep)
			}
		}
	}
}
