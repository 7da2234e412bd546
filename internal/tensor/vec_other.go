//go:build !amd64

package tensor

// No vector loops outside the micro-kernel on this architecture: every
// registry entry is vecNone, tiles are written back by writeTile and
// epilogueTile, SigmoidSlice, gemvRow, MaxPool2 and gemmNaive run their
// Go loops and no convolution takes the direct path.

func tileTail(vecISA, []float32, int, *[maxMR * maxNR]float32, []float32, int, int) {
	panic("tensor: active kernel has no tile write-back routine")
}

func packRows8(vecISA, []float32, []float32, int, int, int) int { return 0 }

func sigmoidVec(vecISA, []float32, []float32) int { return 0 }

func tapConv(vecISA, []float32, int, []float32, []float32, []int, []float32, float32) {
	panic("tensor: active kernel has no direct-convolution routine")
}

func compactRows(vecISA, []float32, []float32, int, int, int) {
	panic("tensor: active kernel has no row-compaction routine")
}

func maxPool2Vec(vecISA, []float32, []float32, int, int, int) {
	panic("tensor: active kernel has no max-pool routine")
}

func narrowGEMM(vecISA, []float32, []float32, []float32, int, int, int, bool) bool { return false }

func axpy4(vecISA, []float32, []float32, []float32, []float32, []float32, float32, float32, float32, float32) int {
	return 0
}

func axpy1(vecISA, []float32, []float32, float32) int { return 0 }
