package exec

import "slices"

// FoldBatches opens an aggregate of the given groups and aggregates, adds
// each batch at the positions sels[k] to it once, and returns a function
// that folds every batch into it again — through fold, or through
// refFold when ref — with the group ids of that first pass: a timing of
// the counts and sums alone, for BenchmarkHashAggrFold in the external
// test package.
func FoldBatches(groups []int, aggs []AggSpec, batches []*Batch, sels [][]int32, ref bool) func() {
	a := &HashAggr{Child: &batchSource{types: batches[0].Types()}, Groups: groups, Aggs: aggs}
	a.Open()
	gids := make([][]int32, len(batches))
	for k, b := range batches {
		a.add(b, sels[k])
		gids[k] = slices.Clone(a.gids)
	}
	fold := a.fold
	if ref {
		fold = a.refFold
	}
	return func() {
		for k, b := range batches {
			a.gids, a.fresh = gids[k], nil
			fold(b, sels[k])
		}
	}
}

// InlineChains keeps every aggregate's chain inline on the simulator
// while on is set, as the real runtime runs it, and returns a function
// that restores the previous setting.
func InlineChains(on bool) (restore func()) {
	prev := inlineChains.Swap(on)
	return func() { inlineChains.Store(prev) }
}

// Splits is the number of chains split so far.
func Splits() int64 { return splits.Load() }
