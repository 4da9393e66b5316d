// Kilroy — the classic Emerald mobility demo: a single object carries its
// thread around every node of the network, leaving a mark at each stop.
// Here the network mixes all three architectures, so every hop converts
// the live thread state (the loop counter, the accumulating itinerary
// string, the node values) between machine-dependent formats through the
// machine-independent form, resuming native execution at each stop.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/netsim"
)

const program = `
object Kilroy
  var visits: Int <- 0
  operation tour() -> (r: String)
    r <- "Kilroy was here:"
    var i: Int <- 0
    while i < nodes() do
      move self to node(i)
      visits <- visits + 1
      r <- r + " " + str(thisnode())
      i <- i + 1
    end
    move self to node(0)
  end
  function count() -> (r: Int)
    r <- visits
  end
end Kilroy

object Main
  process
    var k: Kilroy <- new Kilroy
    var t0: Int <- timems()
    print(k.tour())
    var t1: Int <- timems()
    print("visited ", k.count(), " nodes in ", t1 - t0, " simulated ms")
    print("home again at ", locate(k))
  end process
end Main
`

func main() {
	prog, err := core.Compile(program)
	if err != nil {
		log.Fatal(err)
	}
	machines := []netsim.MachineModel{
		netsim.SPARCstationSLC,
		netsim.VAXstation2000,
		netsim.Sun3_100,
		netsim.HP9000_433s,
		netsim.HP9000_385,
	}
	sys, err := core.NewSystem(prog, machines, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}
	for _, line := range sys.Lines() {
		fmt.Println(line)
	}
	for _, n := range sys.Cluster.Nodes {
		fmt.Printf("node%d %-18s executed %d native instructions (%s)\n",
			n.ID, n.Model.Name, n.Instrs, n.Spec.Name)
	}
}
