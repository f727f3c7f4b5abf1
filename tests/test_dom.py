"""Unit tests for the DOM substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.runtime.dom import Document
from repro.runtime.eventloop import EventLoop
from repro.runtime.render import RenderCosts, Renderer
from repro.runtime.simulator import Simulator


@pytest.fixture
def doc():
    return Document(Simulator())


def test_document_starts_with_html_and_body(doc):
    assert doc.document_element.tag == "html"
    assert doc.body.tag == "body"
    assert doc.body.connected
    assert doc.node_count() == 2


def test_create_and_append(doc):
    div = doc.create_element("DIV")
    assert div.tag == "div"
    assert not div.connected
    doc.body.append_child(div)
    assert div.connected
    assert div.parent is doc.body
    assert doc.node_count() == 3


def test_append_reparents(doc):
    a = doc.body.append_child(doc.create_element("a"))
    b = doc.body.append_child(doc.create_element("b"))
    b.append_child(a)
    assert a.parent is b
    assert a not in doc.body.children


def test_remove_child(doc):
    div = doc.body.append_child(doc.create_element("div"))
    doc.body.remove_child(div)
    assert not div.connected
    with pytest.raises(SimulationError):
        doc.body.remove_child(div)


def test_attributes(doc):
    div = doc.create_element("div")
    div.set_attribute("id", "main")
    assert div.get_attribute("id") == "main"
    assert div.get_attribute("missing") is None


def test_mutations_mark_document_dirty(doc):
    doc.dirty = False
    div = doc.create_element("div")
    doc.body.append_child(div)
    assert doc.dirty
    doc.dirty = False
    div.set_style("color", "red")
    assert doc.dirty


def test_src_triggers_resource_loader_when_connected(doc):
    loads = []
    doc.resource_loader = loads.append
    img = doc.create_element("img")
    img.set_attribute("src", "/a.png")  # not connected: no load
    assert loads == []
    doc.body.append_child(img)  # connected with src: load fires
    assert loads == [img]
    img.set_attribute("src", "/b.png")  # src change while connected
    assert loads == [img, img]


def test_serialization_is_deterministic(doc):
    div = doc.body.append_child(doc.create_element("div"))
    div.set_attribute("b", "2")
    div.set_attribute("a", "1")
    div.text = "hi"
    serialized = doc.serialize()
    assert serialized == '<html><body><div a="1" b="2">hi</div></body></html>'
    assert doc.serialize() == serialized


def test_descendants_depth_first(doc):
    a = doc.body.append_child(doc.create_element("a"))
    a.append_child(doc.create_element("b"))
    doc.body.append_child(doc.create_element("c"))
    tags = [el.tag for el in doc.document_element.descendants()]
    assert tags == ["body", "a", "b", "c"]


def test_get_elements_by_tag(doc):
    doc.body.append_child(doc.create_element("span"))
    doc.body.append_child(doc.create_element("span"))
    doc.body.append_child(doc.create_element("div"))
    assert len(doc.get_elements_by_tag("SPAN")) == 2


def test_dom_operations_consume_time(doc):
    sim = doc.sim
    from repro.runtime.simulator import ExecutionFrame

    frame = ExecutionFrame(0, "t")
    sim.push_frame(frame)
    doc.create_element("div")
    assert frame.elapsed > 0
    sim.pop_frame()


def test_descendants_is_pre_order_on_a_deep_tree(doc):
    node = doc.body
    for _ in range(2_000):  # deeper than the recursion limit
        node = node.append_child(doc.create_element("div"))
    assert sum(1 for _ in doc.document_element.descendants()) == 2_001
    assert doc.node_count() == 2_002


def test_moving_a_subtree_updates_every_node_once(doc):
    box = doc.create_element("div")
    link = box.append_child(doc.create_element("a"))
    canvas = box.append_child(doc.create_element("canvas"))
    canvas.pending_paint_cost = 7
    assert not link.connected and doc.node_count() == 2
    doc.body.append_child(box)
    assert link.connected and canvas.connected and doc.node_count() == 5
    assert list(doc.anchors()) == [link]
    doc.body.remove_child(box)
    assert not canvas.connected and doc.node_count() == 2
    assert list(doc.anchors()) == [] and doc.take_pending_paint() == 0
    assert canvas.pending_paint_cost == 7  # kept until attached again


def test_attach_is_silent(doc):
    doc.dirty = False
    loads = []
    doc.resource_loader = loads.append
    img = doc.create_element("img")
    img.attributes["src"] = "/a.png"
    sim = doc.sim
    from repro.runtime.simulator import ExecutionFrame

    frame = ExecutionFrame(0, "t")
    sim.push_frame(frame)
    doc.body.attach(img)
    sim.pop_frame()
    assert frame.elapsed == 0 and not doc.dirty and loads == []
    assert img.connected and doc.node_count() == 3


# ----------------------------------------------------------------------
# differential test: the incremental bookkeeping against full walks
# ----------------------------------------------------------------------
VISITED = frozenset({"https://seen.example/", "https://also-seen.example/"})
HREFS = sorted(VISITED) + ["https://new.example/", None]
COSTS = RenderCosts()


def reference_walk(element):
    """The subtree in pre-order, by plain recursion over ``children``."""
    for child in element.children:
        yield child
        yield from reference_walk(child)


def reference_node_count(document):
    return 1 + sum(1 for _ in reference_walk(document.document_element))


def reference_connected(document, element):
    node = element
    while node is not None:
        if node is document.document_element:
            return True
        node = node.parent
    return False


def reference_frame_cost(document, visited_fn):
    """The renderer's frame cost as two full tree walks per frame."""
    cost = COSTS.base_paint
    node_count = reference_node_count(document)
    if document.dirty:
        cost += node_count * (COSTS.style_per_node + COSTS.layout_per_node)
        for element in reference_walk(document.document_element):
            if element.tag == "a" and "href" in element.attributes:
                if visited_fn(element.attributes["href"]):
                    element.matched_visited = True
                    cost += COSTS.visited_style_extra
    for element in reference_walk(document.document_element):
        if element.pending_paint_cost:
            cost += element.pending_paint_cost
            element.pending_paint_cost = 0
    return cost


def _is_ancestor_or_self(node, of):
    while of is not None:
        if of is node:
            return True
        of = of.parent
    return False


def apply_ops(ops, reference):
    """Build a document from ``ops``; frames use the reference or the renderer.

    Indices are taken modulo the live element list, and an op the DOM
    cannot express (moving the root, making a cycle, removing an
    orphan) is a no-op, so any drawn sequence is a valid history.
    """
    sim = Simulator()
    document = Document(sim)
    renderer = Renderer(
        EventLoop(sim, "dom-test"), document, COSTS, visited_fn=VISITED.__contains__
    )
    elements = [document.document_element, document.body]
    frame_costs = []

    def pick(i):
        return elements[i % len(elements)]

    for op, *args in ops:
        if op == "create":
            tag, parent, href, paint = args
            element = document.create_element(tag)
            if href is not None:
                element.attributes["href"] = href
            element.pending_paint_cost = paint
            if parent is not None:  # grow a subtree, detached or not
                pick(parent).append_child(element)
            elements.append(element)
        elif op in ("append", "attach"):
            parent, child = pick(args[0]), pick(args[1])
            if child is document.document_element or _is_ancestor_or_self(child, parent):
                continue
            if op == "append":
                parent.append_child(child)
            else:
                parent.attach(child)
        elif op == "remove":
            child = pick(args[0])
            if child.parent is not None:
                child.parent.remove_child(child)
        elif op == "href":
            element, href = pick(args[0]), args[1]
            if href is None:
                element.attributes.pop("href", None)
            else:
                element.attributes["href"] = href
        elif op == "paint_add":
            pick(args[0]).pending_paint_cost += args[1]
        elif op == "paint_set":
            pick(args[0]).pending_paint_cost = args[1]
        elif op == "dirty":
            document.mark_dirty()
        elif op == "frame":
            if reference:
                frame_costs.append(reference_frame_cost(document, VISITED.__contains__))
            else:
                frame_costs.append(renderer._frame_cost())
            document.dirty = False
    return document, elements, frame_costs


_index = st.integers(min_value=0, max_value=7)
_paint = st.sampled_from([0, 0, 700, 5_000])
DOM_OPS = st.one_of(
    st.tuples(
        st.just("create"),
        st.sampled_from(["a", "div", "canvas"]),
        st.none() | _index,
        st.sampled_from(HREFS),
        _paint,
    ),
    st.tuples(st.just("append"), _index, _index),
    st.tuples(st.just("attach"), _index, _index),
    st.tuples(st.just("remove"), _index),
    st.tuples(st.just("href"), _index, st.sampled_from(HREFS)),
    st.tuples(st.just("paint_add"), _index, _paint),
    st.tuples(st.just("paint_set"), _index, _paint),
    st.tuples(st.just("dirty")),
    st.tuples(st.just("frame")),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(DOM_OPS, max_size=50))
def test_incremental_bookkeeping_matches_full_walks(ops):
    # after every step, one more frame on each side (a frame consumes
    # paint, so each check replays the history on fresh documents)
    for step in range(len(ops) + 1):
        history = ops[:step] + [("frame",)]
        fast, fast_els, fast_costs = apply_ops(history, reference=False)
        ref, ref_els, ref_costs = apply_ops(history, reference=True)
        assert fast.node_count() == reference_node_count(ref)
        assert [el.connected for el in fast_els] == [
            reference_connected(ref, el) for el in ref_els
        ]
        assert [el.tag for el in fast.document_element.descendants()] == [
            el.tag for el in reference_walk(ref.document_element)
        ]
        assert fast_costs == ref_costs
        assert [el.matched_visited for el in fast_els] == [
            el.matched_visited for el in ref_els
        ]
        assert [el.pending_paint_cost for el in fast_els] == [
            el.pending_paint_cost for el in ref_els
        ]
