// Package cluster implements the paper's privacy-conscious query
// clustering (Section 4, "Cluster Matching"): queries with similar
// features have similar privacy breaches and therefore receive similar
// preservation techniques. The module answers Map(q, C) — which cluster a
// rewritten query belongs to — *without executing the query*, the design
// choice the paper argues for (and experiment E6 measures).
//
// Cluster generation runs offline over a labelled query workload: feature
// vectors come from internal/piql, labels (breach classes) from the
// breach analyzer, and the clusters from k-means++. Each cluster
// carries the majority breach class of its members, which keys into the
// preservation registry.
package cluster

import (
	"fmt"
	"math"

	"privateiye/internal/piql"
	"privateiye/internal/preserve"
	"privateiye/internal/stats"
)

// Example is one labelled training query.
type Example struct {
	Query  *piql.Query
	Breach preserve.BreachClass
}

// Cluster is one query cluster in the KB.
type Cluster struct {
	ID       int
	Centroid []float64
	Breach   preserve.BreachClass
	Size     int
}

// KB is the Cluster Knowledge Base of Figure 2(a).
type KB struct {
	Clusters []Cluster
}

// HeuristicBreach is the deterministic breach analyzer used to label
// training workloads: the stand-in for the paper's "inferring possible
// types of privacy breaches for different classes of queries by mining
// the raw data". The rules follow the breach taxonomy directly:
//
//   - identifier and sensitive output together -> attribute disclosure
//   - identifier output alone -> identity disclosure
//   - grouped aggregates over sensitive values -> aggregate inference
//     (the Figure 1 breach)
//   - sensitive output with quasi-identifier predicates -> linkage
//   - anything else -> none
func HeuristicBreach(q *piql.Query) preserve.BreachClass {
	f := q.ExtractFeatures()
	switch {
	case f.ReturnsIdentifier && f.ReturnsSensitive:
		return preserve.BreachAttribute
	case f.ReturnsIdentifier:
		return preserve.BreachIdentity
	case f.AggReturns > 0 && f.GroupBys > 0 && f.ReturnsSensitive:
		return preserve.BreachAggregateInference
	case f.ReturnsSensitive:
		return preserve.BreachLinkage
	default:
		return preserve.BreachNone
	}
}

func distance(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// BuildKMeans clusters the examples into k clusters with k-means++
// initialization and Lloyd iterations, then labels each cluster with its
// majority breach class.
func BuildKMeans(examples []Example, k int, seed uint64) (*KB, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cluster: k = %d", k)
	}
	if len(examples) < k {
		return nil, fmt.Errorf("cluster: %d examples for k = %d", len(examples), k)
	}
	vecs := make([][]float64, len(examples))
	for i, ex := range examples {
		vecs[i] = ex.Query.ExtractFeatures().Vector()
	}
	dim := len(vecs[0])
	rng := stats.NewRand(seed)

	// k-means++ seeding.
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, append([]float64(nil), vecs[rng.Intn(len(vecs))]...))
	for len(centroids) < k {
		d2 := make([]float64, len(vecs))
		var total float64
		for i, v := range vecs {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := distance(v, c); d < best {
					best = d
				}
			}
			d2[i] = best * best
			total += d2[i]
		}
		if total == 0 {
			// All remaining points coincide with a centroid; duplicate one.
			centroids = append(centroids, append([]float64(nil), vecs[rng.Intn(len(vecs))]...))
			continue
		}
		r := rng.Float64() * total
		idx := 0
		for i, w := range d2 {
			r -= w
			if r <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), vecs[idx]...))
	}

	assign := make([]int, len(vecs))
	for iter := 0; iter < 100; iter++ {
		changed := false
		for i, v := range vecs {
			best, bestD := 0, math.Inf(1)
			for j, c := range centroids {
				if d := distance(v, c); d < bestD {
					best, bestD = j, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		counts := make([]int, k)
		sums := make([][]float64, k)
		for j := range sums {
			sums[j] = make([]float64, dim)
		}
		for i, v := range vecs {
			counts[assign[i]]++
			for d := range v {
				sums[assign[i]][d] += v[d]
			}
		}
		for j := range centroids {
			if counts[j] == 0 {
				continue // keep the old centroid for empty clusters
			}
			for d := range centroids[j] {
				centroids[j][d] = sums[j][d] / float64(counts[j])
			}
		}
		if !changed {
			break
		}
	}

	return assemble(examples, assign, centroids)
}

// assemble builds the KB from assignments, labelling clusters by majority
// breach class; empty clusters are dropped.
func assemble(examples []Example, assign []int, centroids [][]float64) (*KB, error) {
	k := len(centroids)
	votes := make([]map[preserve.BreachClass]int, k)
	sizes := make([]int, k)
	for i := range votes {
		votes[i] = map[preserve.BreachClass]int{}
	}
	for i, ex := range examples {
		votes[assign[i]][ex.Breach]++
		sizes[assign[i]]++
	}
	kb := &KB{}
	for j := 0; j < k; j++ {
		if sizes[j] == 0 {
			continue
		}
		var label preserve.BreachClass
		best := -1
		for b, n := range votes[j] {
			if n > best || (n == best && b < label) {
				label, best = b, n
			}
		}
		kb.Clusters = append(kb.Clusters, Cluster{
			ID:       len(kb.Clusters),
			Centroid: centroids[j],
			Breach:   label,
			Size:     sizes[j],
		})
	}
	if len(kb.Clusters) == 0 {
		return nil, fmt.Errorf("cluster: no non-empty clusters")
	}
	return kb, nil
}

// Map assigns a query to its nearest cluster, returning the cluster and
// the feature-space distance (a confidence signal: distant queries are
// unlike anything seen in training).
func (kb *KB) Map(q *piql.Query) (*Cluster, float64, error) {
	if len(kb.Clusters) == 0 {
		return nil, 0, fmt.Errorf("cluster: empty KB")
	}
	v := q.ExtractFeatures().Vector()
	best, bestD := 0, math.Inf(1)
	for i := range kb.Clusters {
		if d := distance(v, kb.Clusters[i].Centroid); d < bestD {
			best, bestD = i, d
		}
	}
	return &kb.Clusters[best], bestD, nil
}
