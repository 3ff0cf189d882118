//go:build amd64 && !purego

package vexp

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// kernelExpected: on a host with AVX2 and FMA nothing but a kernel that no
// longer matches math.Exp keeps the init probe from arming it.
func kernelExpected() bool { return hostHasAVX2FMA() }

// TestProbeStandsDownWithoutFMA runs this test binary again under
// GODEBUG=cpu.fma=off, which moves math.Exp to its non-FMA sequence while
// CPUID still reports FMA: the probe must notice and leave Exp on math.Exp.
func TestProbeStandsDownWithoutFMA(t *testing.T) {
	if os.Getenv("VEXP_FMA_OFF_CHILD") != "" {
		if Kernel() != "scalar" {
			t.Fatalf("Kernel() = %q under GODEBUG=cpu.fma=off", Kernel())
		}
		var x, y [4096]float64
		for i := range x {
			x[i] = -40 + 80*float64(i)/float64(len(x))
		}
		if expAVX2(&y[0], &x[0], len(x)) != len(x) {
			t.Fatal("kernel stopped inside its range")
		}
		differ := 0
		for i := range x {
			if !same(y[i], math.Exp(x[i])) {
				differ++
			}
		}
		t.Logf("FMA kernel differs from the non-FMA math.Exp on %d of %d inputs", differ, len(x))
		if differ == 0 {
			t.Fatal("math.Exp did not change with cpu.fma=off: this test proves nothing")
		}
		checkExp(t, x[:])
		return
	}
	if !hostHasAVX2FMA() {
		t.Skip("no AVX2+FMA on this host")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestProbeStandsDownWithoutFMA$", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off", "VEXP_FMA_OFF_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child failed: %v\n%s", err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, "differs from") {
			t.Log(strings.TrimSpace(line))
		}
	}
}
