package hlo

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// checkUsers recomputes every instruction's users from the operand
// lists — who reads it, through how many slots — and requires the
// tracked lists to be exactly that multiset, with the accessors
// agreeing; Verify must pass too (it checks the same both ways round,
// by other means).
func checkUsers(t *testing.T, step string, c *Computation) {
	t.Helper()
	if err := c.Verify(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	want := map[*Instruction]map[*Instruction]int{}
	for _, in := range c.instrs {
		for _, op := range in.Operands {
			if want[op] == nil {
				want[op] = map[*Instruction]int{}
			}
			want[op][in]++
		}
	}
	for _, in := range c.instrs {
		got := map[*Instruction]int{}
		for _, u := range in.users {
			if _, dup := got[u.user]; dup {
				t.Fatalf("%s: %s lists user %s twice", step, in.Name, u.user.Name)
			}
			got[u.user] = u.slots
		}
		if len(got) != len(want[in]) {
			t.Fatalf("%s: %s has users %v, operands say %v", step, in.Name, got, want[in])
		}
		for u, slots := range want[in] {
			if got[u] != slots || in.userIndex(u) < 0 {
				t.Fatalf("%s: %s -> %s tracked as %d slots, operands name it %d times", step, in.Name, u.Name, got[u], slots)
			}
		}
		users := in.Users()
		if in.NumUsers() != len(got) || len(users) != len(got) {
			t.Fatalf("%s: %s NumUsers %d, Users %d, tracked %d", step, in.Name, in.NumUsers(), len(users), len(got))
		}
		for i, u := range users {
			if in.User(i) != u || in.users[i].user != u {
				t.Fatalf("%s: %s Users()[%d] is not User(%d)", step, in.Name, i, i)
			}
		}
	}
}

// TestUsersTrackOperandsUnderRandomRewrites drives the slice-backed
// user lists through what rewriting passes do to a graph, in random
// order — append, ReplaceOperand, ReplaceAllUsesWith, RemoveDeadCode,
// Clone (carrying on with the copy) — and checks them against the
// operand lists after every step.
func TestUsersTrackOperandsUnderRandomRewrites(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewComputation("users")
		for i := 0; i < 3; i++ {
			c.Parameter(i, fmt.Sprintf("p%d", i), []int{4})
		}
		// Every value has the one shape, so any rewiring type-checks;
		// a replacement always comes from earlier in the schedule than
		// what it replaces, so the order stays topological.
		earlier := func(pos int) *Instruction { return c.instrs[rng.Intn(pos)] }
		grow := func() {
			n := len(c.instrs)
			switch rng.Intn(3) {
			case 0:
				c.Copy(earlier(n))
			case 1:
				c.Add(earlier(n), earlier(n))
			default:
				x := earlier(n)
				c.Max(x, x) // one user, two slots
			}
		}
		for i := 0; i < 12; i++ {
			grow()
		}
		checkUsers(t, fmt.Sprintf("seed %d: built", seed), c)
		for step := 0; step < 60; step++ {
			var what string
			switch pos := 1 + rng.Intn(len(c.instrs)-1); rng.Intn(6) {
			case 0:
				what = "grow"
				grow()
			case 1:
				what = "ReplaceOperand"
				if in := c.instrs[pos]; len(in.Operands) > 0 {
					in.ReplaceOperand(in.Operands[rng.Intn(len(in.Operands))], earlier(pos))
				}
			case 2:
				what = "ReplaceAllUsesWith"
				c.ReplaceAllUsesWith(c.instrs[pos], earlier(pos))
			case 3:
				what = "RemoveDeadCode"
				c.RemoveDeadCode()
			case 4:
				what = "ScheduleStableTopological"
				c.ScheduleStableTopological()
			default:
				what = "Clone"
				src := c
				c = c.Clone()
				checkUsers(t, fmt.Sprintf("seed %d step %d: source after Clone", seed, step), src)
				for i, in := range src.instrs {
					for j, u := range in.users {
						if got := c.instrs[i].users[j]; got.user.ID != u.user.ID || got.slots != u.slots {
							t.Fatalf("seed %d step %d: clone of %s lists its users in another order", seed, step, in.Name)
						}
					}
				}
			}
			checkUsers(t, fmt.Sprintf("seed %d step %d: %s", seed, step, what), c)
		}
	}
}

// TestClonedUsersDoNotShareCapacity pins the carve: a clone's user
// lists lie side by side in one slab, each with its capacity capped at
// its length, so giving a cloned instruction one more user reallocates
// its list instead of writing over its slab neighbour's first user.
func TestClonedUsersDoNotShareCapacity(t *testing.T) {
	src := NewComputation("slab")
	p0 := src.Parameter(0, "p0", []int{4})
	p1 := src.Parameter(1, "p1", []int{4})
	src.Copy(p0)
	u1 := src.Copy(p1)

	c := src.Clone()
	q0, q1 := c.Find("p0"), c.Find("p1")
	if uintptr(unsafe.Pointer(&q0.users[0]))+unsafe.Sizeof(use{}) != uintptr(unsafe.Pointer(&q1.users[0])) {
		t.Fatal("the clone's user lists are not neighbours in one slab: this test pins nothing")
	}
	if cap(q0.users) != len(q0.users) {
		t.Fatalf("cloned user list has capacity %d over length %d", cap(q0.users), len(q0.users))
	}
	extra := c.Copy(q0)
	if q0.NumUsers() != 2 || q0.User(1) != extra {
		t.Fatalf("p0's clone has users %v after gaining one", q0.Users())
	}
	if q1.NumUsers() != 1 || q1.User(0) != c.Find(u1.Name) {
		t.Fatalf("p1's clone has users %v: its neighbour's append wrote into it", q1.Users())
	}
	checkUsers(t, "after the append", c)
}
