//go:build !amd64

package tensor

// No vector loops outside the micro-kernel on this architecture: every
// registry entry is vecNone, tiles are written back by writeTile and
// epilogueTile, SigmoidSlice, gemvRow and MaxPool2 run their Go loops and
// no convolution takes the direct path. gemvRow's Go loops are written as
// the generic micro-kernel's, `acc += a * b`, which the compiler fuses here
// wherever it fuses the micro-kernels' (arm64: NEON's FMLA).

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

func gemvBlock(_ vecISA, c, b []float32, off *[blockKC]int, coef *[blockKC]float32, cnt int, accumulate bool) {
	gemvBlockGo(c, b, off[:cnt], coef[:cnt], accumulate)
}
