// Command tool is a main package: its main is a root.
package main

import "unuseddata/lib"

func main() { println(lib.Used()) }
