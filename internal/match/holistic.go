package match

import (
	"fmt"

	"collabscope/internal/cluster"
	"collabscope/internal/embed"
)

// Holistic clusters the UNION of all schemas' signatures once (per element
// kind) and links every cross-schema pair sharing a cluster — the holistic
// multi-source strategy of He & Chang, as opposed to MatchAllContext's
// pairwise invocation. One clustering over k schemas costs one k-means run
// instead of k·(k−1)/2, and linkage decisions become globally consistent.
func Holistic(k int, seed int64, sets []*embed.SignatureSet) []Pair {
	return holistic(sets, func(x *embed.SignatureSet) []int {
		res, err := cluster.KMeans(x.Matrix, cluster.Config{K: k, Seed: seed})
		if err != nil {
			return nil
		}
		return res.Assignments
	})
}

// HolisticAuto is Holistic with the cluster cardinality self-tuned by the
// silhouette coefficient over the candidate counts (the ALITE approach of
// Khatiwada et al., cited in §2.2).
func HolisticAuto(candidates []int, seed int64, sets []*embed.SignatureSet) []Pair {
	return holistic(sets, func(x *embed.SignatureSet) []int {
		res, _, err := cluster.BestKBySilhouette(x.Matrix, candidates, seed)
		if err != nil {
			return nil
		}
		return res.Assignments
	})
}

// holistic unions the sets per kind, clusters with the given strategy, and
// emits cross-schema co-member pairs.
func holistic(sets []*embed.SignatureSet, assignFn func(*embed.SignatureSet) []int) []Pair {
	split := make([]kindSets, len(sets))
	for i, s := range sets {
		split[i] = splitKinds(s)
	}
	var out []Pair
	filtered := make([]*embed.SignatureSet, len(sets))
	for k := range (kindSets{}) {
		for i := range split {
			filtered[i] = split[i][k]
		}
		union := embed.Union(filtered)
		if union.Len() < 2 {
			continue
		}
		assign := assignFn(union)
		if len(assign) != union.Len() {
			continue
		}
		byCluster := map[int][]int{}
		for i, c := range assign {
			byCluster[c] = append(byCluster[c], i)
		}
		for _, members := range byCluster {
			for i := 0; i < len(members); i++ {
				for j := i + 1; j < len(members); j++ {
					a, b := union.IDs[members[i]], union.IDs[members[j]]
					if a.Schema != b.Schema {
						out = append(out, Pair{A: a, B: b})
					}
				}
			}
		}
	}
	return sortedUnique(out)
}

// HACMatcher links same-kind cross-schema elements that hierarchical
// agglomerative clustering groups together — the multi-source strategy of
// Saeedi et al. cited in §1. Unlike k-means it needs no cardinality, only a
// distance cutoff.
type HACMatcher struct {
	// Cutoff is the merge-distance threshold, e.g. 0.8 for unit-norm
	// signatures.
	Cutoff float64
	// Link is the linkage criterion (default average).
	Link cluster.Linkage
}

// Name implements Matcher.
func (h HACMatcher) Name() string {
	return fmt.Sprintf("HAC(%s,%.1f)", h.Link, h.Cutoff)
}

// Match implements Matcher.
func (h HACMatcher) Match(a, b *embed.SignatureSet) []Pair {
	return holistic([]*embed.SignatureSet{a, b}, func(x *embed.SignatureSet) []int {
		assign, err := cluster.HAC(x.Matrix, cluster.HACConfig{Linkage: h.Link, Cutoff: h.Cutoff})
		if err != nil {
			return nil
		}
		return assign
	})
}
