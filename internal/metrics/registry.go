package metrics

// registry.go is the replica's one declaration point for exported
// series. Each family is declared once — name, help text, kind, at most
// one label — and WriteText renders the Prometheus text exposition
// (version 0.0.4) from the same storage the JSON snapshots read, with
// no client library: the format is lines of `name{labels} value` under
// `# HELP` / `# TYPE` headers. Histograms follow the convention
// exactly: cumulative `_bucket{le="..."}` series over the shared bucket
// geometry (trimmed after the last non-empty bucket), a `+Inf` bucket,
// and `_sum` / `_count`, durations in seconds.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// Registry holds a replica's metric families in declaration order. The
// zero value is ready to use. Declare every family before the first
// WriteText: declaring is not synchronised with rendering. The handles
// and read functions are safe to use from any goroutine.
type Registry struct {
	fams []*family
}

// family is one declared metric family: a kind ("counter", "gauge" or
// "histogram") and its series, one per label value (a single unlabelled
// series when label is empty).
type family struct {
	name, help, kind, label string
	series                  []series
}

// series is one sample source: count for counters, gauge for gauges,
// hist for histograms.
type series struct {
	value string
	count func() uint64
	gauge func() float64
	hist  *Latency
}

// declare adds a family. A name declared twice is a programming error:
// the exposition would carry the family twice.
func (r *Registry) declare(f *family) {
	for _, g := range r.fams {
		if g.name == f.name {
			panic("metrics: family " + f.name + " declared twice")
		}
	}
	r.fams = append(r.fams, f)
}

// Counter declares an unlabelled counter and returns its handle.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.CounterFunc(name, help, c.Load)
	return c
}

// CounterFunc declares an unlabelled counter whose value is owned
// elsewhere (the mempool's admission counters, the pacemaker's timer
// count): read is called at every render.
func (r *Registry) CounterFunc(name, help string, read func() uint64) {
	r.declare(&family{name: name, help: help, kind: "counter", series: []series{{count: read}}})
}

// CounterVec declares a counter labelled label and returns one handle
// per value, in the order given; the series render in that order, each
// one present (zero-filled) from the start.
func (r *Registry) CounterVec(name, help, label string, values ...string) []*Counter {
	f := &family{name: name, help: help, kind: "counter", label: label}
	handles := make([]*Counter, len(values))
	for i, v := range values {
		handles[i] = new(Counter)
		f.series = append(f.series, series{value: v, count: handles[i].Load})
	}
	r.declare(f)
	return handles
}

// Gauge declares an unlabelled gauge read at every render.
func (r *Registry) Gauge(name, help string, read func() float64) {
	r.declare(&family{name: name, help: help, kind: "gauge", series: []series{{gauge: read}}})
}

// Histogram declares an unlabelled seconds histogram and returns its
// handle.
func (r *Registry) Histogram(name, help string) *Latency {
	return r.HistogramVec(name, help, "", "")[0]
}

// HistogramVec declares a seconds histogram labelled label and returns
// one handle per value, in the order given (the render order).
func (r *Registry) HistogramVec(name, help, label string, values ...string) []*Latency {
	f := &family{name: name, help: help, kind: "histogram", label: label}
	handles := make([]*Latency, len(values))
	for i, v := range values {
		handles[i] = new(Latency)
		f.series = append(f.series, series{value: v, hist: handles[i]})
	}
	r.declare(f)
	return handles
}

// WriteText renders every family in the Prometheus text exposition
// format, in declaration order.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.fams {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, s := range f.series {
			labels := ""
			if f.label != "" {
				labels = fmt.Sprintf("%s=%q", f.label, s.value)
			}
			switch {
			case s.hist != nil:
				writeHistogram(bw, f.name, labels, s.hist.Export())
			case s.gauge != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, braced(labels), formatFloat(s.gauge()))
			default:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, braced(labels), s.count())
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series: cumulative buckets, the
// +Inf bucket, then sum (seconds) and count.
func writeHistogram(w io.Writer, name, labels string, h HistData) {
	prefix := labels
	if prefix != "" {
		prefix += ","
	}
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n", name, prefix, formatFloat(HistBucketUpper(i).Seconds()), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, prefix, h.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(labels), formatFloat(float64(h.Sum)/1e9))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), h.Count)
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
