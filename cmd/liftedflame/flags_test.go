package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

// TestDriverFlagSurface holds the command line to the name=default list
// recorded from the commit before the shared s3d.RunOptions binder replaced
// the per-driver flag blocks (flag.VisitAll order: sorted by name), minus
// the two flags of the dynamic load balancer, deleted with it, and with the
// per-layer store path and cadence flag pairs folded into one cadence each
// (-analysis, -cost, -critpath: steps, 0 off; the records land in the
// trace), and minus -scatter, whose figure-11 files are always written: no
// other flag lost, none gained, no other default moved, and -lb and
// -scatter are unknown flags again.
func TestDriverFlagSurface(t *testing.T) {
	want := []string{
		"analysis=0", "cost=0", "critpath=0", "flightrec=", "health=false", "monitor=", "nx=96", "ny=72", "out=out_liftedflame", "profile=", "steps=400", "trace=", "workers=0",
	}
	fs := flag.NewFlagSet("liftedflame", flag.ContinueOnError)
	bindFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag surface changed:\n got %q\nwant %q", got, want)
	}
	fs.SetOutput(io.Discard)
	if err := fs.Parse([]string{"-lb"}); err == nil {
		t.Fatal("-lb still parses: the load balancer's flag is supposed to be gone")
	}
	if err := fs.Parse([]string{"-scatter=false"}); err == nil {
		t.Fatal("-scatter still parses: figure 11 is supposed to be written on every run")
	}
}
