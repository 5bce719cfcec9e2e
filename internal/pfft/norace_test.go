//go:build !race

package pfft

const raceBuild = false
