//go:build ignore

package lib

// Files excluded by a build tag are never loaded, so never reported.
func excluded() {}
