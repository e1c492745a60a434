package linkage

import (
	"fmt"
	"sort"
)

// EncodedRecord is the privacy-preserving projection of a record that a
// source is willing to ship for linkage: an opaque local id, the keyed
// blocking bucket, and the Bloom encoding of the linkage field. Nothing
// else about the record leaves the source.
type EncodedRecord struct {
	ID     string
	Block  string
	Filter *Bitset
}

// EncodeRecord builds an EncodedRecord for a record's linkage field.
func (e *Encoder) EncodeRecord(id, field string) EncodedRecord {
	return EncodedRecord{
		ID:     id,
		Block:  BlockKey(e.Salt, field),
		Filter: e.Encode(field),
	}
}

// Pair is one cross-source match.
type Pair struct {
	LeftID, RightID string
	Similarity      float64
}

// Match links two encoded record sets: within each shared block, pairs
// with Dice similarity >= threshold match. Each left record matches its
// best right record (one-to-one greedy by descending similarity). Results
// are sorted by descending similarity, then ids.
func Match(left, right []EncodedRecord, threshold float64) ([]Pair, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("linkage: threshold %v out of (0,1]", threshold)
	}
	byBlock := map[string][]EncodedRecord{}
	for _, r := range right {
		byBlock[r.Block] = append(byBlock[r.Block], r)
	}
	var candidates []Pair
	for _, l := range left {
		for _, r := range byBlock[l.Block] {
			sim, err := Dice(l.Filter, r.Filter)
			if err != nil {
				return nil, err
			}
			if sim >= threshold {
				candidates = append(candidates, Pair{LeftID: l.ID, RightID: r.ID, Similarity: sim})
			}
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Similarity != candidates[j].Similarity {
			return candidates[i].Similarity > candidates[j].Similarity
		}
		if candidates[i].LeftID != candidates[j].LeftID {
			return candidates[i].LeftID < candidates[j].LeftID
		}
		return candidates[i].RightID < candidates[j].RightID
	})
	usedL := map[string]bool{}
	usedR := map[string]bool{}
	var out []Pair
	for _, c := range candidates {
		if usedL[c.LeftID] || usedR[c.RightID] {
			continue
		}
		usedL[c.LeftID] = true
		usedR[c.RightID] = true
		out = append(out, c)
	}
	return out, nil
}

// Quality summarizes linkage accuracy against a known truth mapping
// (left id -> right id): precision, recall and F1.
type Quality struct {
	Precision, Recall, F1 float64
	TruePairs, Found, Hit int
}

// Evaluate scores matched pairs against ground truth.
func Evaluate(pairs []Pair, truth map[string]string) Quality {
	q := Quality{TruePairs: len(truth), Found: len(pairs)}
	for _, p := range pairs {
		if truth[p.LeftID] == p.RightID {
			q.Hit++
		}
	}
	if q.Found > 0 {
		q.Precision = float64(q.Hit) / float64(q.Found)
	}
	if q.TruePairs > 0 {
		q.Recall = float64(q.Hit) / float64(q.TruePairs)
	}
	if q.Precision+q.Recall > 0 {
		q.F1 = 2 * q.Precision * q.Recall / (q.Precision + q.Recall)
	}
	return q
}
