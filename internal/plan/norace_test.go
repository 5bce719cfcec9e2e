//go:build !race

package plan

const raceBuild = false
