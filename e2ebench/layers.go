package main

import (
	"math"
	"sort"
)

// accountingTolerance is the share of client wall time the layer self times
// may leave unaccounted before the traced run flags the breakdown.
const accountingTolerance = 0.05

// linked is one single-RHS solve whose shard request ran alone on its shard,
// with the spans of every layer it crossed.
type linked struct {
	client, router, serve span
	routed                bool
}

// linkSpans pairs each exclusive shard solve with the client request that
// contains it on the same path, and the client request with its router span.
func linkSpans(spans []span) (acc []linked, patches []span) {
	byPath := map[string][]span{}
	routers := map[int64]span{}
	for _, s := range spans {
		switch s.layer {
		case "client":
			byPath[s.path] = append(byPath[s.path], s)
		case "cluster":
			routers[s.id] = s
		}
	}
	for _, s := range spans {
		if s.layer != "serve" || !s.exclusive {
			continue
		}
		if s.name == "PATCH" {
			patches = append(patches, s)
			continue
		}
		for _, c := range byPath[s.path] {
			if c.name != "solve" || c.start.After(s.start) || c.end.Before(s.end) {
				continue
			}
			r, routed := routers[c.id]
			acc = append(acc, linked{client: c, router: r, serve: s, routed: routed})
			break
		}
	}
	sort.Slice(acc, func(i, j int) bool { return acc[i].client.start.Before(acc[j].client.start) })
	return acc, patches
}

// breakdown is the per-request layer split of the linked solves, as means.
type breakdown struct {
	n                                    int
	client, proxy, request, job, wait    float64
	execute, verify, overhead, unaccount float64
	iterS, nnzPerS                       float64
}

// layerBreakdown splits each linked solve's client wall time C into layer
// self times that telescope back to C:
//
//	client.self  = C − R          (client codec and first hop; R = S unrouted)
//	cluster.proxy = R − S         (router handler and second hop)
//	serve.wait   = S − J          (decode, queue wait, encode)
//	core.overhead = J − E − V     (replica acquire, result copy, supervision)
//	serve.verify = V              (host verification, measured directly)
//	core.execute = E              (compiled program on the backend)
//
// where R, S are the router and shard spans, J the request's serve solve
// latency and E its core execute time (histogram deltas, exact because the
// request ran alone on its shard). A negative self time is clamped to zero
// and what the clamping adds or removes is reported as unaccounted.
func layerBreakdown(acc []linked, verify []float64, nnz []int, spmvs int) breakdown {
	var bd breakdown
	var wall, accounted, iters, work float64
	for _, l := range acc {
		if l.serve.d.jobN != 1 || l.serve.d.execN != 1 {
			continue // a retry or a second attempt: not a single clean solve
		}
		c, s := l.client.dur(), l.serve.dur()
		r := s
		if l.routed {
			r = l.router.dur()
		}
		j, e, v := l.serve.d.jobSum, l.serve.d.execSum, verify[l.client.sys]
		parts := []float64{c - r, r - s, s - j, j - e - v, v, e}
		bd.n++
		bd.client += parts[0]
		bd.proxy += parts[1]
		bd.request += s
		bd.job += j
		bd.wait += parts[2]
		bd.overhead += parts[3]
		bd.verify += v
		bd.execute += e
		wall += c
		for _, p := range parts {
			accounted += math.Max(p, 0)
		}
		iters += float64(l.client.iters)
		work += float64(nnz[l.client.sys]*spmvs) * float64(l.client.iters)
	}
	if bd.n == 0 {
		return bd
	}
	bd.unaccount = math.Abs(wall-accounted) / wall
	if bd.execute > 0 {
		bd.iterS = bd.execute / iters
		bd.nnzPerS = work / bd.execute
	}
	n := float64(bd.n)
	bd.client /= n
	bd.proxy /= n
	bd.request /= n
	bd.job /= n
	bd.wait /= n
	bd.overhead /= n
	bd.verify /= n
	bd.execute /= n
	return bd
}

// weightedMean averages per-system values weighted by how many linked solves
// each system served.
func weightedMean(acc []linked, perSys []float64) float64 {
	if len(acc) == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range acc {
		sum += perSys[l.client.sys]
	}
	return sum / float64(len(acc))
}
