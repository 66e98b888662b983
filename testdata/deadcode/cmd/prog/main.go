// Command prog is the fixture's one program.
package main

import (
	"log"

	"fixture/internal/a"
)

func main() {
	if err := a.Run(); err != nil {
		log.Fatal(err)
	}
}
