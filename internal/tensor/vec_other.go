//go:build !amd64

package tensor

// No vector loops outside the micro-kernel on this architecture: every
// registry entry is vecNone, tiles are written back by writeTile and
// epilogueTile, SigmoidSlice and gemvRow run their Go loops and no
// convolution takes the direct path.

func tileTail(vecISA, []float32, int, *[maxMR * maxNR]float32, []float32, int) {
	panic("tensor: active kernel has no tile write-back routine")
}

func packRows8(vecISA, []float32, []float32, int, int) int { return 0 }

func sigmoidVec(vecISA, []float32, []float32) int { return 0 }

func tapConv(vecISA, []float32, []float32, []float32, []int, float32, float32) {
	panic("tensor: active kernel has no direct-convolution routine")
}

func axpy4(vecISA, []float32, []float32, []float32, []float32, []float32, float32, float32, float32, float32) int {
	return 0
}

func axpy1(vecISA, []float32, []float32, float32) int { return 0 }
