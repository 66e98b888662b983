// Command ex is an example: what it uses does not count.
package main

import "fixture/internal/a"

func main() {
	_ = a.Options{ExampleOption: 1}
	new(a.Live).ExampleMethod()
}
