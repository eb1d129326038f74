package main

import (
	"runtime"
	"sort"
	"time"

	"github.com/easeml/ci/internal/server"
)

// clientOut is what one client goroutine measured.
type clientOut struct {
	ops  ops
	lat  map[string][]sample // round trips by op type
	work []sample            // completed units of work: verdicts, plan answers
	reqs []reqRecord         // traced requests
	errs errFirst
	// commits counts verdicts received; labels, looks, early and saved
	// sum the label economy the verdicts reported.
	commits, labels, looks, early, saved int
	// queries counts plan answers.
	queries int
}

func newClientOut() *clientOut {
	return &clientOut{ops: ops{}, lat: map[string][]sample{}}
}

// sample is a measurement stamped with when it completed, so the phase
// can be cut into time slices.
type sample struct {
	at time.Time
	v  float64
}

// timed records one round trip of the given op type.
func (o *clientOut) timed(kind string, rt time.Duration) {
	o.lat[kind] = append(o.lat[kind], sample{time.Now(), ms(rt)})
}

// did records n units of work completed now.
func (o *clientOut) did(n int) {
	o.work = append(o.work, sample{time.Now(), float64(n)})
}

func (o *clientOut) verdict(r server.CommitResponse) {
	o.did(1)
	o.commits++
	o.labels += r.FreshLabels
	o.looks += r.Looks
	o.saved += r.LabelsSaved
	if r.EarlyExit {
		o.early++
	}
}

// phase is one measured run of a workload's op sequence against one
// control plane.
type phase struct {
	t0, t1     time.Time
	alloc0     uint64
	alloc1     uint64
	out        clientOut
	untimedOps ops
	// onMeasure, when set, runs just before the measured window opens
	// (after any warm-up).
	onMeasure func()
}

func newPhase() *phase {
	return &phase{out: *newClientOut(), untimedOps: ops{}}
}

func (p *phase) begin() {
	if p.onMeasure != nil {
		p.onMeasure()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc0 = ms.TotalAlloc
	p.t0 = time.Now()
}

func (p *phase) end() {
	p.t1 = time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc1 = ms.TotalAlloc
}

func (p *phase) seconds() float64 { return p.t1.Sub(p.t0).Seconds() }

// add folds one client's measurements into the phase.
func (p *phase) add(o *clientOut) {
	p.out.ops.merge(o.ops)
	for k, v := range o.lat {
		p.out.lat[k] = append(p.out.lat[k], v...)
	}
	p.out.work = append(p.out.work, o.work...)
	p.out.reqs = append(p.out.reqs, o.reqs...)
	p.out.errs.keep(o.errs.err)
	p.out.commits += o.commits
	p.out.labels += o.labels
	p.out.looks += o.looks
	p.out.early += o.early
	p.out.saved += o.saved
	p.out.queries += o.queries
}

// addUntimed folds in a client that ran outside the measured window
// (plan-sweep's warm-up): its ops count, its timings do not.
func (p *phase) addUntimed(o *clientOut) {
	p.untimedOps.merge(o.ops)
	p.out.errs.keep(o.errs.err)
}

// allOps is every op the phase issued, warm-up included.
func (p *phase) allOps() ops {
	all := ops{}
	all.merge(p.out.ops)
	all.merge(p.untimedOps)
	return all
}

// slices is how many equal time slices a phase is cut into. Throughput
// and median latency are medians over the slices, so a burst of load
// from outside the benchmark (another machine's disk or CPU traffic)
// that hits a few slices moves them little.
const slices = 10

// byslice groups samples by the time slice they completed in.
func (p *phase) byslice(xs []sample) [slices][]float64 {
	var out [slices][]float64
	span := float64(p.t1.Sub(p.t0))
	for _, x := range xs {
		i := int(float64(x.at.Sub(p.t0)) / span * slices)
		i = max(0, min(slices-1, i))
		out[i] = append(out[i], x.v)
	}
	return out
}

// rate is the median over slices of the work completed per second.
func (p *phase) rate() float64 {
	per := p.t1.Sub(p.t0).Seconds() / slices
	var rates []float64
	for _, s := range p.byslice(p.out.work) {
		sum := 0.0
		for _, v := range s {
			sum += v
		}
		rates = append(rates, sum/per)
	}
	return median(rates)
}

// sliceMedian is the median over slices of each slice's median latency.
func (p *phase) sliceMedian(kind string) float64 {
	var meds []float64
	for _, s := range p.byslice(p.out.lat[kind]) {
		if len(s) > 0 {
			meds = append(meds, median(s))
		}
	}
	return median(meds)
}

// latencies is every round trip of one op type, in ms.
func (p *phase) latencies(kind string) []float64 {
	out := make([]float64, len(p.out.lat[kind]))
	for i, s := range p.out.lat[kind] {
		out[i] = s.v
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
