package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// markRatio is how far the new median may sit from the old one, as a
// fraction of the old, before compare marks the row — when the move also
// exceeds both sides' MAD. Fixed, so every comparison applies one bar.
const markRatio = 0.20

// series is every sample of one (benchmark, unit) pair in a document.
type series struct {
	name, unit string
	vals       []float64
}

// readDoc loads a warped.bench/v1 document.
func readDoc(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, Schema)
	}
	return &doc, nil
}

// samples groups a document's result lines by (benchmark, unit), in the
// order the pairs first appear.
func samples(doc *Document) []*series {
	var out []*series
	index := map[[2]string]*series{}
	for _, b := range doc.Benchmarks {
		for _, m := range b.Metrics {
			key := [2]string{b.Name, m.Unit}
			s := index[key]
			if s == nil {
				s = &series{name: b.Name, unit: m.Unit}
				index[key] = s
				out = append(out, s)
			}
			s.vals = append(s.vals, m.Value)
		}
	}
	return out
}

// median returns the median of xs, which it sorts.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medMAD returns the median and the median absolute deviation from it.
func medMAD(xs []float64) (med, mad float64) {
	med = median(append([]float64(nil), xs...))
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return med, median(dev)
}

// compare prints, for every (benchmark, unit) pair both documents hold, each
// side's median and MAD and the ratio of the medians, and marks the rows
// whose ratio lies beyond markRatio and whose medians differ by more than
// both sides' MAD. It fails only when a document cannot be read.
func compare(w io.Writer, oldPath, newPath string) error {
	oldDoc, err := readDoc(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := readDoc(newPath)
	if err != nil {
		return err
	}
	old := map[[2]string]*series{}
	for _, s := range samples(oldDoc) {
		old[[2]string{s.name, s.unit}] = s
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tunit\told median\told MAD\tnew median\tnew MAD\tnew/old\t")
	matched, marked := 0, 0
	for _, n := range samples(newDoc) {
		o := old[[2]string{n.name, n.unit}]
		if o == nil {
			continue
		}
		matched++
		om, omad := medMAD(o.vals)
		nm, nmad := medMAD(n.vals)
		ratio := nm / om
		if om == nm {
			ratio = 1
		}
		mark := ""
		if d := math.Abs(nm - om); math.Abs(ratio-1) > markRatio && d > omad && d > nmad {
			mark = "*"
			marked++
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.3g\t%.4g\t%.3g\t%.3f\t%s\n", n.name, n.unit, om, omad, nm, nmad, ratio, mark)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%d pairs in both documents, %d marked (*: medians %.0f%% or more apart, by more than either side's MAD)\n",
		matched, marked, markRatio*100)
	return err
}
