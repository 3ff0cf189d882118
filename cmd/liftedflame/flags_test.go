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
// the two flags of the dynamic load balancer, deleted with it: no other flag
// lost, none gained, no default moved, and -lb is an unknown flag again.
func TestDriverFlagSurface(t *testing.T) {
	want := []string{
		"analysis=", "analysis-every=1", "cost=", "cost-every=1", "critpath=", "critpath-every=1", "flightrec=", "health=false", "monitor=", "nx=96", "ny=72", "out=out_liftedflame", "profile=", "scatter=true", "steps=400", "trace=", "workers=0",
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
}
