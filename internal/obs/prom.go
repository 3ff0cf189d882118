package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4), so standard scrapers can pull the monitor's
// /metrics.prom endpoint. Metric names are sanitised to the Prometheus
// charset (dots and other separators become underscores); histogram
// buckets are emitted cumulatively with the conventional
// name_bucket{le="..."} / name_sum / name_count triple.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[n]); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(float64(s.Gauges[n]))); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		pn := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		var cum int64
		for i, bound := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, promFloat(bound), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", pn, promFloat(h.Sum), pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// promName maps a registry name onto the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat formats a float the way Prometheus expects (shortest
// round-trippable form).
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
