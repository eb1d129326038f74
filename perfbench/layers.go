package main

import (
	"github.com/easeml/ci/internal/server"
)

// layerInput is everything the per-layer breakdown of one traced phase
// is computed from.
type layerInput struct {
	spans  []span
	reqs   []reqRecord
	sync   bool // the primary op is a sync commit (the engine runs inside it)
	out    *clientOut
	before server.MultiMetricsResponse
	after  server.MultiMetricsResponse
}

// layers computes the per-layer metrics. Medians are per primary request;
// per-commit figures divide totals by the verdicts the clients received.
func layers(in layerInput) map[string]float64 {
	handle := map[uint64]span{}
	var fsyncs, writes []float64
	walBytes, snapBytes, fsyncCount := 0, 0, 0
	walByJob := map[string]float64{} // submit-record write+fsync per job
	var revealMs float64
	revealCalls := 0
	for _, s := range in.spans {
		switch s.Name {
		case "server.handle":
			handle[s.Req] = s
		case "wal.write":
			writes = append(writes, ms(s.dur()))
			if s.Record == "snapshot" {
				snapBytes += s.Bytes
			} else {
				walBytes += s.Bytes
			}
			if s.Record == "submit" {
				walByJob[s.Tenant+"/"+s.Job] += ms(s.dur())
			}
		case "wal.fsync":
			fsyncs = append(fsyncs, ms(s.dur()))
			fsyncCount++
			if s.Record == "submit" {
				walByJob[s.Tenant+"/"+s.Job] += ms(s.dur())
			}
		case "labeling.reveal":
			revealMs += ms(s.dur())
			revealCalls++
		}
	}
	commits := float64(in.out.commits)
	per := func(x float64) float64 {
		if commits == 0 {
			return 0
		}
		return x / commits
	}
	evalMs := 0.0
	if n := delta(in.after, in.before, func(t server.TenantMetrics) uint64 { return t.CommitsEvaluated }); n > 0 {
		ns := delta(in.after, in.before, func(t server.TenantMetrics) uint64 { return t.CommitEvalNsTotal })
		evalMs = float64(ns) / float64(n) / 1e6
	}
	var rts, https, handles, decodes, encodes, residuals, walReq []float64
	for _, r := range in.reqs {
		h, ok := handle[r.ID]
		if !ok {
			continue
		}
		hm := ms(h.dur())
		w := walByJob[r.Tenant+"/"+r.Job]
		engine := 0.0
		if in.sync {
			engine = evalMs
		}
		rts = append(rts, ms(r.RT))
		https = append(https, ms(r.RT)-hm)
		handles = append(handles, hm)
		decodes = append(decodes, ms(r.Decode))
		encodes = append(encodes, ms(r.Encode))
		walReq = append(walReq, w)
		residuals = append(residuals, hm-ms(r.Decode)-ms(r.Encode)-w-engine)
	}
	m := map[string]float64{
		"server.http_ms":   median(https),
		"server.handle_ms": median(handles),
		"server.decode_ms": median(decodes),
		"server.encode_ms": median(encodes),
		"queue.wait_ms":    median(residuals),

		"engine.eval_ms":                 evalMs,
		"engine.looks_per_commit":        per(float64(in.out.looks)),
		"engine.early_exit_share":        per(float64(in.out.early)),
		"engine.labels_saved_per_commit": per(float64(in.out.saved)),

		"labeling.reveal_ms":        per(revealMs),
		"labeling.calls_per_commit": per(float64(revealCalls)),

		"wal.fsync_ms":          median(fsyncs),
		"wal.write_ms":          median(writes),
		"wal.fsyncs_per_commit": per(float64(fsyncCount)),
		"wal.bytes_per_commit":  per(float64(walBytes)),
		// Snapshot bytes are apart because they depend on timing: a
		// snapshot holds the jobs still queued when compaction ran.
		"wal.snapshot_bytes_per_commit": per(float64(snapBytes)),
		"wal.compactions_per_1k_commits": per(1000 * float64(delta(in.after, in.before, func(t server.TenantMetrics) uint64 {
			if t.WAL == nil {
				return 0
			}
			return t.WAL.Compactions
		}))),
	}
	pc := in.after.PlanCache
	pb := in.before.PlanCache
	m["planner.hit_ratio"] = ratio(pc.PlanHits-pb.PlanHits, pc.PlanHits-pb.PlanHits+pc.PlanMisses-pb.PlanMisses)
	m["bounds.memo_hit_ratio"] = ratio(in.after.ExactMemoHits-in.before.ExactMemoHits,
		in.after.ExactMemoHits-in.before.ExactMemoHits+in.after.ExactMemoMisses-in.before.ExactMemoMisses)
	m["bounds.exact_evals_per_miss"] = ratio(in.after.ExactEvals-in.before.ExactEvals, pc.PlanMisses-pb.PlanMisses)

	// Coverage: the layers on the primary request's blocking path, as
	// medians, against the round trip's median.
	path := m["server.http_ms"] + m["server.decode_ms"] + m["server.encode_ms"] + m["queue.wait_ms"] + median(walReq)
	if in.sync {
		path += evalMs
	}
	m["trace.coverage"] = 0
	if rt := median(rts); rt > 0 {
		m["trace.coverage"] = path / rt
	}
	return m
}

// delta sums a tenant counter's growth across every tenant.
func delta(after, before server.MultiMetricsResponse, f func(server.TenantMetrics) uint64) uint64 {
	var sum uint64
	for _, t := range after.Projects {
		sum += f(t)
	}
	for _, t := range before.Projects {
		sum -= f(t)
	}
	return sum
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
