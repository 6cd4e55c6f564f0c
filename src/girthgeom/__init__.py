"""girthgeom: exact-arithmetic constructions of axis-aligned box families
and straight-line families in 3-space whose intersection graphs have
large girth and large chromatic number, with every claim re-verified
exactly at construction time."""

from .boxes import (
    BoxFamily,
    GroundedSquareBox,
    build_box_family,
    check_box_structure,
    embed_copy_boxes,
    make_ground_boxes,
    meeting_pair_family,
    normalize_traces,
    odd_cycle_boxes,
    recursion_step_boxes,
    single_box_family,
)
from .budget import Budget
from .errors import (
    BudgetExhausted,
    ConstructionError,
    ProviderFailure,
    ProviderRefusal,
)
from .gallai import (
    GallaiCertificate,
    GroundSet,
    ProviderPolicy,
    enumerate_copies,
    find_copy_cycle,
    normalize_ground_set,
    pigeonhole_certificate,
    search_certificate,
    vdw_certificate,
    verify_certificate,
)
from .geometry import Box3, Dir3, Interval, Line3, Point3, rat
from .graphs import (
    GeoGraph,
    chromatic_number,
    cycle_graph,
    girth,
    graph_equals_expected,
    intersection_graph,
    is_k_colorable,
    to_dimacs,
)
from .lines import (
    LineFamily,
    ShiftSystem,
    build_line_family,
    build_shift_system,
    check_line_structure,
    choose_frame,
    double_shift_graph,
    embed_copy_lines,
    make_ground_lines,
    meeting_pair_lines,
    odd_cycle_lines,
    recursion_step_lines,
    single_line_family,
    verify_shift_system,
)

__version__ = "0.1.0"
