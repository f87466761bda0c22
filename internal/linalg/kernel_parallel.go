package linalg

// Row-blocked parallel fronts for the kernels in kernel.go. Work splits by
// output row through internal/parallel, so determinism is inherited: each
// cell is written exactly once by a fixed row owner with the sequential
// kernels' accumulation order, making results bit-identical at any worker
// count. Per-kernel row counters register with the obs.Registry attached to
// the context (no-ops when absent).
import (
	"context"
	"math"

	"collabscope/internal/obs"
	"collabscope/internal/parallel"
)

// ParallelPairwiseSquaredDistancesInto fills dst as in
// PairwiseSquaredDistancesInto, splitting by row of a. In the symmetric
// case (a and b the same matrix) row i computes only j > i and mirrors into
// column i, so every cell still has a single writer.
func ParallelPairwiseSquaredDistancesInto(ctx context.Context, workers int, dst, a, b *Dense) error {
	if a.cols != b.cols {
		panic("linalg: pairwise distance column mismatch")
	}
	checkDst("ParallelPairwiseSquaredDistancesInto", dst, a.rows, b.rows)
	checkNoAlias("ParallelPairwiseSquaredDistancesInto", dst, a, b)
	rows := obs.FromContext(ctx).Counter("linalg.kernel.pairwise.rows")
	sym := sameMatrix(a, b)
	err := parallel.ForEach(ctx, workers, a.rows, func(i int) error {
		di := dst.data[i*dst.cols : (i+1)*dst.cols]
		if sym {
			di[i] = 0
			pairRowSquared(di, a, b, i, i+1, b.rows)
			for j := i + 1; j < b.rows; j++ {
				dst.data[j*dst.cols+i] = di[j]
			}
		} else {
			pairRowSquared(di, a, b, i, 0, b.rows)
		}
		return nil
	})
	rows.Add(int64(a.rows))
	return err
}

// ParallelPairwiseDistancesInto is the Euclidean (square-rooted) variant of
// ParallelPairwiseSquaredDistancesInto.
func ParallelPairwiseDistancesInto(ctx context.Context, workers int, dst, a, b *Dense) error {
	if err := ParallelPairwiseSquaredDistancesInto(ctx, workers, dst, a, b); err != nil {
		return err
	}
	return parallel.ForEach(ctx, workers, a.rows, func(i int) error {
		di := dst.data[i*dst.cols : (i+1)*dst.cols]
		for j, v := range di {
			di[j] = math.Sqrt(v)
		}
		return nil
	})
}
