// Command nested belongs to its own module, nested inside the fixture
// module: `go build` run from the fixture root cannot build it.
package main

func main() {}
