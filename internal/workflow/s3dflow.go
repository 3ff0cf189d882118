package workflow

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"github.com/s3dgo/s3d/internal/sdf"
)

// Cluster is the simulated two-site topology of §9: the simulation writes
// on jaguar; the workflow stages data to ewok for morphing/imaging, archives
// to HPSS at ORNL and ships analysis copies to Sandia.
type Cluster struct {
	Root string
	// Directories (created by NewCluster).
	JaguarRestart string
	JaguarNetcdf  string
	JaguarMinMax  string
	Ewok          string
	HPSS          string
	Sandia        string
	Dashboard     string

	// TransferredBytes counts staged bytes (the 100 MB/s multi-stream ssh
	// channel of §9 is modelled by accounting, not sleeping).
	TransferredBytes atomic.Int64
}

// NewCluster builds the directory tree under root.
func NewCluster(root string) (*Cluster, error) {
	c := &Cluster{
		Root:          root,
		JaguarRestart: filepath.Join(root, "jaguar", "restart"),
		JaguarNetcdf:  filepath.Join(root, "jaguar", "netcdf"),
		JaguarMinMax:  filepath.Join(root, "jaguar", "minmax"),
		Ewok:          filepath.Join(root, "ewok"),
		HPSS:          filepath.Join(root, "hpss"),
		Sandia:        filepath.Join(root, "sandia"),
		Dashboard:     filepath.Join(root, "dashboard"),
	}
	for _, d := range []string{
		c.JaguarRestart, c.JaguarNetcdf, c.JaguarMinMax, c.Ewok, c.HPSS, c.Sandia, c.Dashboard,
	} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// transfer copies a file between sites, accounting the bytes. The copy
// lands whole or not at all (sdf.WriteAtomic): the staging, archive and
// dashboard directories are read while the workflow runs.
func (c *Cluster) transfer(src, dstDir string) (string, error) {
	dst := filepath.Join(dstDir, filepath.Base(src))
	in, err := os.Open(src)
	if err != nil {
		return "", err
	}
	defer in.Close()
	var n int64
	if err := sdf.WriteAtomic(dst, func(w io.Writer) (err error) {
		n, err = io.Copy(w, in)
		return err
	}); err != nil {
		return "", err
	}
	c.TransferredBytes.Add(n)
	return dst, nil
}

// MorphRestart implements the N-files → M-files restart morphing: it merges
// the per-rank variables of a staged restart SDF into a single consolidated
// file ("the workflow morphs these files into a smaller number of files, so
// that the S3D analysis can be done on a smaller number of files").
func MorphRestart(in string) (string, error) {
	f, err := sdf.ReadFile(in)
	if err != nil {
		return "", err
	}
	merged := sdf.New()
	for k, v := range f.Attrs {
		merged.Attrs[k] = v
	}
	merged.Attrs["morphed"] = "true"
	// Concatenate per-rank variables of the same base name.
	groups := map[string][]sdf.Variable{}
	var order []string
	for _, v := range f.Vars {
		base := v.Name
		if i := strings.LastIndexByte(v.Name, '.'); i > 0 {
			base = v.Name[:i]
		}
		if _, seen := groups[base]; !seen {
			order = append(order, base)
		}
		groups[base] = append(groups[base], v)
	}
	for _, base := range order {
		var data []float64
		for _, v := range groups[base] {
			data = append(data, v.Data...)
		}
		if err := merged.AddVar(base, []int{len(data)}, data); err != nil {
			return "", err
		}
	}
	out := strings.TrimSuffix(in, ".sdf") + ".morphed.sdf"
	if err := merged.WriteFile(out); err != nil {
		return "", err
	}
	return out, nil
}

// PlotMinMax extracts each variable's min/max from a staged SDF file and
// appends rows to the dashboard's time-trace table — the data behind the
// figure-17 interactive min/max plots.
func PlotMinMax(in, dashboardDir string) (string, error) {
	f, err := sdf.ReadFile(in)
	if err != nil {
		return "", err
	}
	out := filepath.Join(dashboardDir, "minmax.csv")
	w, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	defer w.Close()
	step := f.Attrs["step"]
	for _, v := range f.Vars {
		if len(v.Data) == 0 {
			continue
		}
		lo, hi := v.Data[0], v.Data[0]
		for _, x := range v.Data {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%g,%g\n", step, v.Name, lo, hi); err != nil {
			return "", err
		}
	}
	return out, nil
}

// S3DMonitor assembles the figure-16 workflow: three pipelines run in
// parallel over the cluster —
//
//	restart: watch jaguar/restart → stage to ewok → morph → fan out to
//	         HPSS archive and Sandia transfer;
//	netcdf:  watch jaguar/netcdf → stage to ewok → dashboard plots;
//	minmax:  watch jaguar/minmax → dashboard min/max table.
//
// Checkpoints live under the cluster root so a stopped and restarted
// workflow resumes without repeating completed stages.
func S3DMonitor(c *Cluster) (*Workflow, error) {
	wf := New("s3d-monitor")
	ckpt, err := NewCheckpoint(filepath.Join(c.Root, "workflow.ckpt"))
	if err != nil {
		return nil, err
	}
	errLog := filepath.Join(c.Root, "workflow.errlog")

	// --- Restart/analysis pipeline ---
	restartFiles := NewPort()
	staged := NewPort()
	morphed := NewPort()
	toHPSS := NewPort()
	toSandia := NewPort()

	wf.Add(
		&FileWatcher{ActorName: "watch-restart", Dir: c.JaguarRestart, Glob: "restart-*.sdf",
			Out: restartFiles, RequireDone: true},
		&ProcessFile{ActorName: "stage-ewok", In: restartFiles, Out: staged, Ckpt: ckpt, ErrLog: errLog,
			Op:       func(in string) (string, error) { return c.transfer(in, c.Ewok) },
			OutputOf: func(in string) string { return filepath.Join(c.Ewok, filepath.Base(in)) },
		},
		&ProcessFile{ActorName: "morph", In: staged, Out: morphed, Ckpt: ckpt, ErrLog: errLog,
			Op:       MorphRestart,
			OutputOf: func(in string) string { return strings.TrimSuffix(in, ".sdf") + ".morphed.sdf" },
		},
		&Fan{ActorName: "fan-archive", In: morphed, Out: []Port{toHPSS, toSandia}},
		&ProcessFile{ActorName: "archive-hpss", In: toHPSS, Ckpt: ckpt, ErrLog: errLog,
			Op: func(in string) (string, error) { return c.transfer(in, c.HPSS) },
		},
		&ProcessFile{ActorName: "transfer-sandia", In: toSandia, Ckpt: ckpt, ErrLog: errLog,
			Op: func(in string) (string, error) { return c.transfer(in, c.Sandia) },
		},
	)

	// --- netcdf analysis pipeline ---
	ncFiles := NewPort()
	ncStaged := NewPort()
	wf.Add(
		&FileWatcher{ActorName: "watch-netcdf", Dir: c.JaguarNetcdf, Glob: "analysis-*.sdf", Out: ncFiles},
		&ProcessFile{ActorName: "stage-netcdf", In: ncFiles, Out: ncStaged, Ckpt: ckpt, ErrLog: errLog,
			Op:       func(in string) (string, error) { return c.transfer(in, c.Ewok) },
			OutputOf: func(in string) string { return filepath.Join(c.Ewok, filepath.Base(in)) },
		},
		&ProcessFile{ActorName: "plot", In: ncStaged, Ckpt: ckpt, ErrLog: errLog,
			Op: func(in string) (string, error) { return PlotMinMax(in, c.Dashboard) },
		},
	)

	// --- min/max ASCII pipeline ---
	mmFiles := NewPort()
	wf.Add(
		&FileWatcher{ActorName: "watch-minmax", Dir: c.JaguarMinMax, Glob: "minmax-*.txt", Out: mmFiles},
		&ProcessFile{ActorName: "dashboard-minmax", In: mmFiles, Ckpt: ckpt, ErrLog: errLog,
			Op: func(in string) (string, error) { return c.transfer(in, c.Dashboard) },
		},
	)
	return wf, nil
}

// StopAll drops the STOP sentinel into every watched directory so the
// workflow drains and exits once the simulation is done.
func (c *Cluster) StopAll() error {
	for _, d := range []string{c.JaguarRestart, c.JaguarNetcdf, c.JaguarMinMax} {
		if err := os.WriteFile(filepath.Join(d, "STOP"), nil, 0o644); err != nil {
			return err
		}
	}
	return nil
}
