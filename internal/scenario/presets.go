package scenario

import (
	"fmt"

	"mlink/internal/csi"
	"mlink/internal/geom"
	"mlink/internal/propagation"
)

// NumLinkCases is the number of evaluation links in Fig. 6.
const NumLinkCases = 5

// classroom builds the 6m×8m classroom of §III-A: drywall construction with
// one concrete long wall and a metal whiteboard creating rich multipath.
func classroomRoom() (*propagation.Room, error) {
	room, err := propagation.RectRoom(6, 8, propagation.Drywall)
	if err != nil {
		return nil, err
	}
	room.Walls[1].Mat = propagation.Concrete // x=6 long wall
	room.PathLossExponent = 2.8
	// Whiteboard on the x=0 wall.
	room.AddObstacle(geom.Segment{A: geom.Point{X: 0.02, Y: 3}, B: geom.Point{X: 0.02, Y: 5}}, propagation.Metal)
	return room, nil
}

// officeRoom builds the second, furnished office room of §V-A.
func officeRoom() (*propagation.Room, error) {
	room, err := propagation.RectRoom(7, 9, propagation.Brick)
	if err != nil {
		return nil, err
	}
	room.PathLossExponent = 3.0
	// Desk rows and a filing cabinet.
	room.AddObstacle(geom.Segment{A: geom.Point{X: 1, Y: 7.5}, B: geom.Point{X: 3.5, Y: 7.5}}, propagation.Furniture)
	room.AddObstacle(geom.Segment{A: geom.Point{X: 4.5, Y: 7.8}, B: geom.Point{X: 6.5, Y: 7.8}}, propagation.Furniture)
	room.AddObstacle(geom.Segment{A: geom.Point{X: 6.8, Y: 1}, B: geom.Point{X: 6.8, Y: 2.5}}, propagation.Metal)
	return room, nil
}

// vacantRoom builds a sparsely furnished area (Case 3's "relatively vacant
// area with a strong LOS path").
func vacantRoom() (*propagation.Room, error) {
	room, err := propagation.RectRoom(10, 12, propagation.Drywall)
	if err != nil {
		return nil, err
	}
	room.PathLossExponent = 2.4
	return room, nil
}

// Classroom returns the §III characterization setup: a 4 m link across the
// 6m×8m classroom.
func Classroom(seed int64) (*Scenario, error) {
	room, err := classroomRoom()
	if err != nil {
		return nil, fmt.Errorf("classroom: %w", err)
	}
	return Build(Spec{
		Name:       "classroom-4m",
		Room:       room,
		TX:         geom.Point{X: 1, Y: 4},
		RXCenter:   geom.Point{X: 5, Y: 4},
		NumAnts:    3,
		Params:     propagation.DefaultLinkParams(),
		MaxBounces: 2,
		Imp:        csi.DefaultImpairments(),
		Seed:       seed,
	})
}

// ShortLinkNearWall returns the 3 m link placed close to a concrete wall
// used for the AoA experiments (§IV-B2, Fig. 5).
func ShortLinkNearWall(seed int64) (*Scenario, error) {
	room, err := classroomRoom()
	if err != nil {
		return nil, fmt.Errorf("short link: %w", err)
	}
	return Build(Spec{
		Name:       "short-3m-near-wall",
		Room:       room,
		TX:         geom.Point{X: 1.5, Y: 6.8},
		RXCenter:   geom.Point{X: 4.5, Y: 6.8},
		NumAnts:    3,
		Params:     propagation.DefaultLinkParams(),
		MaxBounces: 2,
		Imp:        csi.DefaultImpairments(),
		Seed:       seed,
	})
}

// LinkCase returns evaluation link case n ∈ [1,5] (Fig. 6): five links with
// diverse TX–RX distances across two rooms (plus the vacant area of
// Case 3).
func LinkCase(n int, seed int64) (*Scenario, error) {
	spec := Spec{
		NumAnts:    3,
		Params:     propagation.DefaultLinkParams(),
		MaxBounces: 2,
		Imp:        csi.DefaultImpairments(),
		Seed:       seed,
	}
	var err error
	switch n {
	case 1:
		spec.Name = "case1-classroom-5.7m"
		spec.Room, err = classroomRoom()
		spec.TX = geom.Point{X: 1, Y: 2}
		spec.RXCenter = geom.Point{X: 5, Y: 6}
	case 2:
		spec.Name = "case2-classroom-4m"
		spec.Room, err = classroomRoom()
		spec.TX = geom.Point{X: 1, Y: 4}
		spec.RXCenter = geom.Point{X: 5, Y: 4}
	case 3:
		spec.Name = "case3-vacant-3m"
		spec.Room, err = vacantRoom()
		spec.TX = geom.Point{X: 3.5, Y: 6}
		spec.RXCenter = geom.Point{X: 6.5, Y: 6}
	case 4:
		spec.Name = "case4-office-4.2m"
		spec.Room, err = officeRoom()
		spec.TX = geom.Point{X: 1.2, Y: 2.8}
		spec.RXCenter = geom.Point{X: 5.2, Y: 4.1}
	case 5:
		spec.Name = "case5-office-5.5m"
		spec.Room, err = officeRoom()
		spec.TX = geom.Point{X: 0.8, Y: 1.0}
		spec.RXCenter = geom.Point{X: 5.3, Y: 4.0} // runs near the metal cabinet wall
	default:
		return nil, fmt.Errorf("link case %d (valid: 1..%d): %w", n, NumLinkCases, ErrBadScenario)
	}
	if err != nil {
		return nil, fmt.Errorf("case %d room: %w", n, err)
	}
	return Build(spec)
}
