package arch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pipelayer/internal/mapping"
	"pipelayer/internal/tensor"
)

// tileSum is the balanced mapping of Figure 5 built from Quantized arrays: a
// (rows×cols) weight matrix larger than one crossbar is cut into
// array-sized tiles, each programmed as its own array; the input is sliced
// across the row tiles, and "we can get the right results by collecting
// array outputs horizontally and summing them vertically." It returns the
// summed outputs and the tile grid's shape.
func tileSum(w, x *tensor.Tensor, rows, cols int, array mapping.ArraySpec, bits int) (out *tensor.Tensor, rowTiles, colTiles int) {
	rowTiles = (rows + array.Rows - 1) / array.Rows
	colTiles = (cols + array.Cols - 1) / array.Cols
	out = tensor.New(cols)
	for r := 0; r < rowTiles; r++ {
		r0, r1 := r*array.Rows, min((r+1)*array.Rows, rows)
		slice := tensor.FromSlice(x.Data()[r0:r1], r1-r0)
		for c := 0; c < colTiles; c++ {
			c0, c1 := c*array.Cols, min((c+1)*array.Cols, cols)
			tile := tensor.New((r1 - r0) * (c1 - c0))
			for i := r0; i < r1; i++ {
				copy(tile.Data()[(i-r0)*(c1-c0):], w.Data()[i*cols+c0:i*cols+c1])
			}
			part := NewQuantized(tile, r1-r0, c1-c0, bits).MatVec(slice)
			for j, v := range part.Data() {
				out.Data()[c0+j] += v
			}
		}
	}
	return out, rowTiles, colTiles
}

func TestTileSumMatchesExactProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows, cols := 300, 70 // a 3×2 tile grid with a 128×64 array
	array := mapping.ArraySpec{Rows: 128, Cols: 64}
	w := tensor.New(rows*cols).RandNormal(rng, 0, 1)
	x := tensor.New(rows).RandNormal(rng, 0, 1)
	got, rt, ct := tileSum(w, x, rows, cols, array, 16)
	if rt != 3 || ct != 2 {
		t.Fatalf("tile grid = %dx%d, want 3x2", rt, ct)
	}
	for j := 0; j < cols; j++ {
		s := 0.0
		for i := 0; i < rows; i++ {
			s += x.At(i) * w.Data()[i*cols+j]
		}
		if math.Abs(got.At(j)-s) > 2e-3*(1+math.Abs(s)) {
			t.Fatalf("col %d: tiled %g vs exact %g", j, got.At(j), s)
		}
	}
}

// Property: the Figure 5 claim — partitioning into tiles and summing
// vertically matches the single-array result up to per-tile quantization
// scale differences (each tile quantizes against its own maximum, so the
// tolerance reflects 16-bit steps, not exact equality).
func TestPropertyTiledMatchesUntiled(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 10 + rng.Intn(80)
		cols := 1 + rng.Intn(20)
		array := mapping.ArraySpec{Rows: 8 + rng.Intn(32), Cols: 4 + rng.Intn(16)}
		w := tensor.New(rows*cols).RandNormal(rng, 0, 1)
		x := tensor.New(rows).RandNormal(rng, 0, 1)
		tiled, _, _ := tileSum(w, x, rows, cols, array, 16)
		whole := NewQuantized(w, rows, cols, 16).MatVec(x)
		for j := 0; j < cols; j++ {
			if math.Abs(tiled.At(j)-whole.At(j)) > 5e-3*(1+math.Abs(whole.At(j))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTiledSingleTileDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := tensor.New(10*5).RandNormal(rng, 0, 1)
	x := tensor.New(10).RandNormal(rng, 0, 1)
	tiled, rt, ct := tileSum(w, x, 10, 5, mapping.DefaultArray, 16)
	if rt != 1 || ct != 1 {
		t.Fatalf("small matrix should fit one tile, got %dx%d", rt, ct)
	}
	// A single tile must be bit-identical to the untiled path.
	whole := NewQuantized(w, 10, 5, 16).MatVec(x)
	if !tensor.Equal(tiled, whole, 0) {
		t.Fatal("single-tile result must match untiled exactly")
	}
}
