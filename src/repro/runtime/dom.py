"""A small Document Object Model.

Implements exactly the DOM surface the paper's attacks and compatibility
experiments need:

* a tree of :class:`Element` nodes with attributes, styles and children;
* subresource loading (``<script src>``, ``<img src>``) that fires
  ``onload`` / ``onerror`` after network + parse/decode time — the channel
  the van Goethem script-parsing and image-decoding attacks measure;
* ``:visited`` link state consulted during style recalculation — the
  channel history sniffing measures;
* dirty-tracking feeding the renderer's per-frame style/layout/paint cost,
  with the render-facing state (connected count, ``<a>`` index, pending
  paint set) kept current by the tree mutations themselves, so a frame
  never walks the tree;
* deterministic serialisation for the DOM-cosine-similarity compatibility
  test (paper §V-B2).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..errors import SimulationError
from ..trace import state_access

#: Cost of one createElement call.
CREATE_ELEMENT_COST = 600
#: Cost of one appendChild call (tree mutation, invalidation).
APPEND_CHILD_COST = 900
#: Cost of one attribute read/write.
ATTRIBUTE_ACCESS_COST = 150

_node_ids = itertools.count(1)


class Element:
    """One DOM element."""

    def __init__(self, document: "Document", tag: str):
        self.node_id = next(_node_ids)
        # node_id is process-global (fine for repr, unusable in traces);
        # trace_id restarts per run so captures stay byte-identical
        self.trace_id = document.sim.next_object_seq("dom")
        self.document = document
        self.tag = tag.lower()
        self.attributes: Dict[str, str] = {}
        self.style: Dict[str, str] = {}
        self.children: List["Element"] = []
        self.parent: Optional["Element"] = None
        self.text = ""
        self.onload: Optional[Callable[..., None]] = None
        self.onerror: Optional[Callable[..., None]] = None
        #: Set on <a>/<link> elements by style recalc (history sniffing).
        self.matched_visited = False
        #: Arbitrary payload for simulated media/image elements.
        self.payload: Any = None
        #: True when attached under the document root (see Document).
        self.connected = False
        self._pending_paint_cost = 0

    @property
    def pending_paint_cost(self) -> int:
        """Pending paint effects (e.g. SVG filters), consumed per frame."""
        return self._pending_paint_cost

    @pending_paint_cost.setter
    def pending_paint_cost(self, value: int) -> None:
        self._pending_paint_cost = value
        if self.connected and self.parent is not None:
            if value:
                self.document._paint[self] = None
            else:
                self.document._paint.pop(self, None)

    @property
    def trace_obj(self) -> str:
        """Run-deterministic object identity for state-access events."""
        return f"dom:{self.tag}#{self.trace_id}"

    def _trace_mutation(self, access: str) -> None:
        state_access(self.document.sim, self.trace_obj, "write", "dom", access=access)

    # ------------------------------------------------------------------
    # attributes / tree
    # ------------------------------------------------------------------
    def set_attribute(self, name: str, value: str) -> None:
        """``el.setAttribute(name, value)``; ``src`` starts a load."""
        self.document.sim.consume(ATTRIBUTE_ACCESS_COST)
        self._trace_mutation("set_attribute")
        self.attributes[name] = value
        self.document.mark_dirty()
        if name == "src" and self.connected:
            self.document.begin_resource_load(self)

    def get_attribute(self, name: str) -> Optional[str]:
        """``el.getAttribute(name)``."""
        self.document.sim.consume(ATTRIBUTE_ACCESS_COST)
        return self.attributes.get(name)

    def set_style(self, prop: str, value: str) -> None:
        """``el.style.prop = value``."""
        self.document.sim.consume(ATTRIBUTE_ACCESS_COST)
        self._trace_mutation("set_style")
        self.style[prop] = value
        self.document.mark_dirty()

    def append_child(self, child: "Element") -> "Element":
        """``el.appendChild(child)``."""
        self.document.sim.consume(APPEND_CHILD_COST)
        self._trace_mutation("append_child")
        self.attach(child)
        self.document.mark_dirty()
        if child.connected and "src" in child.attributes:
            self.document.begin_resource_load(child)
        return child

    def remove_child(self, child: "Element") -> "Element":
        """``el.removeChild(child)``."""
        if child not in self.children:
            raise SimulationError("removeChild: not a child")
        self.document.sim.consume(APPEND_CHILD_COST)
        self._trace_mutation("remove_child")
        child._move_to(None)
        self.document.mark_dirty()
        return child

    def attach(self, child: "Element") -> "Element":
        """Re-parent ``child`` as this element's last child, silently.

        The tree and the document's bookkeeping change exactly as in
        :meth:`append_child`, but no cost is consumed, no mutation is
        traced, the document is not marked dirty and no load starts: a
        bulk insertion whose invalidation the caller does once.
        """
        child._move_to(self)
        return child

    def _move_to(self, parent: Optional["Element"]) -> None:
        """Unlink from the current parent and link under ``parent`` (None
        detaches); the one place the tree and the bookkeeping change."""
        if self.parent is not None:
            self.parent.children.remove(self)
        self.parent = parent
        connected = False
        if parent is not None:
            parent.children.append(self)
            connected = parent.connected
        if connected != self.connected:
            self.document._set_connected(self, connected)

    # ------------------------------------------------------------------
    # traversal / serialisation
    # ------------------------------------------------------------------
    def descendants(self):
        """Depth-first pre-order iterator over the subtree (excluding self)."""
        stack = self.children[::-1]
        while stack:
            node = stack.pop()
            yield node
            if node.children:
                stack.extend(node.children[::-1])

    def serialize(self) -> str:
        """Deterministic HTML-ish serialisation (compat similarity test)."""
        attrs = "".join(
            f' {name}="{value}"' for name, value in sorted(self.attributes.items())
        )
        inner = self.text + "".join(child.serialize() for child in self.children)
        return f"<{self.tag}{attrs}>{inner}</{self.tag}>"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Element <{self.tag}> #{self.node_id} children={len(self.children)}>"


class Document:
    """The per-page document.

    The page wires ``resource_loader`` (called with an element whose ``src``
    must be fetched) and the renderer observes :attr:`dirty`.

    What a rendered frame needs is kept current as the tree changes, by
    :meth:`_set_connected` (see DESIGN.md, "DOM bookkeeping"): the number
    of connected elements, the connected ``<a>`` elements and the
    connected non-root elements with a non-zero ``pending_paint_cost``.
    The two indexes are dicts used as insertion-ordered sets.
    """

    def __init__(self, sim):
        self.sim = sim
        self._node_count = 1
        self._anchors: Dict[Element, None] = {}
        self._paint: Dict[Element, None] = {}
        self.document_element = Element(self, "html")
        self.document_element.connected = True
        self.body = self.document_element.attach(self.create_element("body"))
        self.dirty = True
        self.resource_loader: Optional[Callable[[Element], None]] = None
        #: onload handler for the document itself (page load event).
        self.onload: Optional[Callable[[], None]] = None
        self.load_fired = False

    # ------------------------------------------------------------------
    def create_element(self, tag: str) -> Element:
        """``document.createElement(tag)``."""
        self.sim.consume(CREATE_ELEMENT_COST)
        return Element(self, tag)

    def get_elements_by_tag(self, tag: str) -> List[Element]:
        """All connected elements with the given tag."""
        tag = tag.lower()
        return [el for el in self.document_element.descendants() if el.tag == tag]

    def mark_dirty(self) -> None:
        """Invalidate style/layout (renderer picks this up next frame)."""
        self.dirty = True

    def begin_resource_load(self, element: Element) -> None:
        """Kick off the subresource load for an element with a ``src``."""
        if self.resource_loader is not None:
            self.resource_loader(element)

    # ------------------------------------------------------------------
    # render-facing bookkeeping
    # ------------------------------------------------------------------
    def _set_connected(self, top: Element, connected: bool) -> None:
        """Flip ``connected`` on ``top``'s subtree and update the indexes."""
        anchors = self._anchors
        paint = self._paint
        nodes = (top, *top.descendants())
        for element in nodes:
            element.connected = connected
            if connected:
                if element.tag == "a":
                    anchors[element] = None
                if element._pending_paint_cost:
                    paint[element] = None
            else:
                anchors.pop(element, None)
                paint.pop(element, None)
        self._node_count += len(nodes) if connected else -len(nodes)

    def node_count(self) -> int:
        """Number of connected elements (root included)."""
        return self._node_count

    def anchors(self) -> Iterable[Element]:
        """The connected ``<a>`` elements (visited-link style pass)."""
        return self._anchors.keys()

    def take_pending_paint(self) -> int:
        """Sum and clear the pending paint cost of connected non-root elements."""
        cost = 0
        for element in self._paint:
            cost += element._pending_paint_cost
            element._pending_paint_cost = 0
        self._paint.clear()
        return cost

    def serialize(self) -> str:
        """Serialise the whole tree."""
        return self.document_element.serialize()
