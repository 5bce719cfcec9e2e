//go:build !race

package op

const raceBuild = false
