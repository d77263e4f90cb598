"""Typed synthetic world: entities, ground-truth facts, and the intent schema.

The *world* is the single source of truth the rest of the data layer compiles
from: the Freebase-like and DBpedia-like stores, the Infobox, the QA corpus
and the benchmarks are all derived views of it.  Because gold answers come
from the same object, evaluation is exact.

An **intent** is a semantic relation (``population``, ``spouse``) independent
of its RDF encoding; :class:`IntentSchema` records how each intent appears in
both compiled KBs (a direct predicate, an entity edge + ``name``, or a
CVT-mediated path such as ``marriage -> person -> name``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data import names as pools
from repro.nlp.question_class import AnswerType
from repro.utils.rng import SeedStream

LITERAL = "literal"
ENTITY = "entity"


@dataclass(frozen=True, slots=True)
class IntentSchema:
    """Declarative description of one semantic relation."""

    intent: str
    domain_types: tuple[str, ...]
    answer_type: AnswerType
    value_kind: str  # LITERAL or ENTITY
    fb_path: tuple[str, ...]
    dbp_path: tuple[str, ...]
    label: str
    related: tuple[str, ...] = ()
    multi_valued: bool = False

    @property
    def is_cvt(self) -> bool:
        """True when the Freebase-like encoding runs through a mediator node."""
        return len(self.fb_path) == 3


# The full intent catalog.  fb_path/dbp_path are predicate paths from the
# entity node to the *answer literal* in the respective store.
INTENT_CATALOG: tuple[IntentSchema, ...] = (
    # --- person ---------------------------------------------------------
    IntentSchema("dob", ("person",), AnswerType.DATE, LITERAL,
                 ("dob",), ("birthDate",), "date of birth"),
    IntentSchema("pob", ("person",), AnswerType.LOCATION, ENTITY,
                 ("pob", "name"), ("birthPlace", "name"), "place of birth",
                 related=("residence",)),
    IntentSchema("residence", ("person",), AnswerType.LOCATION, ENTITY,
                 ("residence", "name"), ("residence", "name"), "residence",
                 related=("pob",)),
    IntentSchema("height", ("person",), AnswerType.NUMERIC, LITERAL,
                 ("height",), ("height",), "height"),
    IntentSchema("profession", ("person",), AnswerType.ENTITY, ENTITY,
                 ("profession", "name"), ("occupation", "name"), "profession"),
    IntentSchema("spouse", ("person",), AnswerType.HUMAN, ENTITY,
                 ("marriage", "person", "name"), ("spouse", "name"), "spouse"),
    IntentSchema("instrument", ("person",), AnswerType.ENTITY, ENTITY,
                 ("instrument", "name"), ("instrument", "name"), "instrument"),
    IntentSchema("works_written", ("person",), AnswerType.ENTITY, ENTITY,
                 ("works_written", "name"), ("notableWork", "name"),
                 "books written", multi_valued=True),
    # --- city / country -------------------------------------------------
    IntentSchema("population", ("city", "country"), AnswerType.NUMERIC, LITERAL,
                 ("population",), ("populationTotal",), "population",
                 related=("area",)),
    IntentSchema("area", ("city", "country"), AnswerType.NUMERIC, LITERAL,
                 ("area",), ("areaTotal",), "area",
                 related=("population",)),
    IntentSchema("mayor", ("city",), AnswerType.HUMAN, ENTITY,
                 ("mayor", "name"), ("leaderName", "name"), "mayor"),
    IntentSchema("located_country", ("city", "mountain"), AnswerType.LOCATION, ENTITY,
                 ("country", "name"), ("country", "name"), "country"),
    IntentSchema("founded", ("city", "company", "university"), AnswerType.DATE, LITERAL,
                 ("founded",), ("foundingDate",), "founding year"),
    IntentSchema("capital", ("country",), AnswerType.LOCATION, ENTITY,
                 ("capital", "name"), ("capital", "name"), "capital"),
    IntentSchema("currency", ("country",), AnswerType.ENTITY, ENTITY,
                 ("currency", "name"), ("currency", "name"), "currency"),
    IntentSchema("language", ("country",), AnswerType.ENTITY, ENTITY,
                 ("language", "name"), ("officialLanguage", "name"), "official language"),
    # --- company ---------------------------------------------------------
    IntentSchema("headquarters", ("company",), AnswerType.LOCATION, ENTITY,
                 ("headquarters", "name"), ("headquarter", "name"), "headquarters"),
    IntentSchema("ceo", ("company",), AnswerType.HUMAN, ENTITY,
                 ("ceo", "name"), ("keyPerson", "name"), "ceo"),
    IntentSchema("revenue", ("company",), AnswerType.NUMERIC, LITERAL,
                 ("revenue",), ("revenue",), "revenue"),
    IntentSchema("employees", ("company",), AnswerType.NUMERIC, LITERAL,
                 ("employees",), ("numberOfEmployees",), "number of employees"),
    IntentSchema("board_members", ("company",), AnswerType.HUMAN, ENTITY,
                 ("organization_members", "member", "name"),
                 ("boardMember", "name"), "board members", multi_valued=True),
    # --- river -----------------------------------------------------------
    IntentSchema("river_length", ("river",), AnswerType.NUMERIC, LITERAL,
                 ("length",), ("length",), "length"),
    IntentSchema("flows_through", ("river",), AnswerType.LOCATION, ENTITY,
                 ("flows_through", "name"), ("crosses", "name"),
                 "country it flows through"),
    # --- book ------------------------------------------------------------
    IntentSchema("author", ("book",), AnswerType.HUMAN, ENTITY,
                 ("author", "name"), ("author", "name"), "author"),
    IntentSchema("published", ("book",), AnswerType.DATE, LITERAL,
                 ("published",), ("publicationDate",), "publication year"),
    IntentSchema("pages", ("book",), AnswerType.NUMERIC, LITERAL,
                 ("pages",), ("numberOfPages",), "number of pages"),
    IntentSchema("genre", ("book", "band", "movie"), AnswerType.ENTITY, ENTITY,
                 ("genre", "name"), ("genre", "name"), "genre"),
    # --- band ------------------------------------------------------------
    IntentSchema("members", ("band",), AnswerType.HUMAN, ENTITY,
                 ("group_member", "member", "name"), ("bandMember", "name"),
                 "members", multi_valued=True),
    IntentSchema("origin", ("band",), AnswerType.LOCATION, ENTITY,
                 ("origin", "name"), ("hometown", "name"), "origin"),
    IntentSchema("formed", ("band",), AnswerType.DATE, LITERAL,
                 ("formed",), ("activeYearsStartYear",), "formation year"),
    IntentSchema("songs", ("band",), AnswerType.ENTITY, ENTITY,
                 ("songs", "song", "name"), ("song", "name"), "songs",
                 multi_valued=True),
    # --- movie -----------------------------------------------------------
    IntentSchema("director", ("movie",), AnswerType.HUMAN, ENTITY,
                 ("director", "name"), ("director", "name"), "director"),
    IntentSchema("release", ("movie",), AnswerType.DATE, LITERAL,
                 ("release",), ("releaseDate",), "release year"),
    IntentSchema("runtime", ("movie",), AnswerType.NUMERIC, LITERAL,
                 ("runtime",), ("runtime",), "runtime"),
    # --- university ------------------------------------------------------
    IntentSchema("students", ("university",), AnswerType.NUMERIC, LITERAL,
                 ("students",), ("numberOfStudents",), "number of students"),
    IntentSchema("located_city", ("university",), AnswerType.LOCATION, ENTITY,
                 ("location", "name"), ("city", "name"), "location"),
    # --- mountain --------------------------------------------------------
    IntentSchema("elevation", ("mountain",), AnswerType.NUMERIC, LITERAL,
                 ("elevation",), ("elevation",), "elevation"),
)

SCHEMA_BY_INTENT: dict[str, IntentSchema] = {s.intent: s for s in INTENT_CATALOG}

# Concept sets per entity type, with Probase-style weights (dominant concept
# first).  Professions refine the person concepts below.
TYPE_CONCEPTS: dict[str, tuple[tuple[str, float], ...]] = {
    "person": (("$person", 4.0),),
    "city": (("$city", 7.0), ("$location", 3.0)),
    "country": (("$country", 7.0), ("$location", 3.0)),
    "company": (("$company", 8.0), ("$organization", 2.0)),
    "river": (("$river", 7.0), ("$location", 3.0)),
    "book": (("$book", 8.0), ("$work", 2.0)),
    "band": (("$band", 7.0), ("$organization", 3.0)),
    "movie": (("$movie", 8.0), ("$work", 2.0)),
    "university": (("$university", 7.0), ("$organization", 3.0)),
    "mountain": (("$mountain", 7.0), ("$location", 3.0)),
    "food": (("$fruit", 7.0), ("$food", 3.0)),
    "song": (("$song", 9.0), ("$work", 1.0)),
    # Value-entity pools: Freebase models these as entities, not literals.
    "profession": (("$profession", 8.0), ("$occupation", 2.0)),
    "instrument": (("$instrument", 9.0), ("$object", 1.0)),
    "currency": (("$currency", 9.0), ("$money", 1.0)),
    "language": (("$language", 9.0), ("$tongue", 1.0)),
    "genre": (("$genre", 9.0), ("$style", 1.0)),
}

PROFESSION_CONCEPTS = {
    "politician": "$politician",
    "actor": "$actor",
    "scientist": "$scientist",
    "musician": "$musician",
    "author": "$author",
}


@dataclass(slots=True)
class WorldEntity:
    """One entity with its ground-truth facts.

    ``facts`` maps intent -> tuple of values; a value is a literal string for
    LITERAL intents and a target node id for ENTITY intents.
    """

    node: str
    name: str
    etype: str
    concepts: tuple[tuple[str, float], ...]
    facts: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def set_fact(self, intent: str, *values: str) -> None:
        if intent not in SCHEMA_BY_INTENT:
            raise KeyError(f"unknown intent {intent!r}")
        self.facts[intent] = tuple(values)

    def get_fact(self, intent: str) -> tuple[str, ...]:
        return self.facts.get(intent, ())


@dataclass(frozen=True, slots=True)
class WorldConfig:
    """Entity counts; two presets cover tests (small) and benchmarks (default)."""

    seed: int = 7
    n_people: int = 1200
    n_cities: int = 280
    n_countries: int = 40
    n_companies: int = 200
    n_rivers: int = 100
    n_books: int = 360
    n_bands: int = 110
    n_movies: int = 220
    n_universities: int = 90
    n_mountains: int = 90
    n_foods: int = 16

    @classmethod
    def small(cls, seed: int = 7) -> "WorldConfig":
        """A few hundred entities — fast enough for unit tests."""
        return cls(
            seed=seed, n_people=140, n_cities=40, n_countries=10,
            n_companies=30, n_rivers=14, n_books=44, n_bands=14,
            n_movies=24, n_universities=10, n_mountains=12, n_foods=8,
        )


class World:
    """Registry of entities plus lookup structure over names and types."""

    def __init__(self, config: WorldConfig) -> None:
        self.config = config
        self.entities: dict[str, WorldEntity] = {}
        self.by_type: dict[str, list[str]] = {}
        self.by_name: dict[str, list[str]] = {}

    # -- Construction -------------------------------------------------------

    def register(self, entity: WorldEntity) -> WorldEntity:
        """Add an entity to the registry (node ids must be unique)."""
        if entity.node in self.entities:
            raise ValueError(f"duplicate node id {entity.node}")
        self.entities[entity.node] = entity
        self.by_type.setdefault(entity.etype, []).append(entity.node)
        self.by_name.setdefault(entity.name, []).append(entity.node)
        return entity

    # -- Lookups ------------------------------------------------------------

    def entity(self, node: str) -> WorldEntity:
        return self.entities[node]

    def of_type(self, etype: str) -> list[WorldEntity]:
        return [self.entities[n] for n in self.by_type.get(etype, [])]

    def name_of(self, node: str) -> str:
        return self.entities[node].name

    def gold_values(self, node: str, intent: str) -> set[str]:
        """Answer strings for (entity, intent): literals, or target names."""
        schema = SCHEMA_BY_INTENT[intent]
        raw = self.entities[node].get_fact(intent)
        if schema.value_kind == LITERAL:
            return set(raw)
        return {self.entities[target].name for target in raw}

    def iter_facts(self):
        """Yield every (node, intent, value) ground-truth fact."""
        for node, entity in self.entities.items():
            for intent, values in entity.facts.items():
                for value in values:
                    yield node, intent, value

    def ambiguous_names(self) -> dict[str, list[str]]:
        """Names carried by entities of more than one type."""
        out: dict[str, list[str]] = {}
        for name, nodes in self.by_name.items():
            types = {self.entities[n].etype for n in nodes}
            if len(types) > 1:
                out[name] = list(nodes)
        return out

    def stats(self) -> dict[str, int]:
        """Entity counts per type plus totals."""
        counts = {etype: len(nodes) for etype, nodes in self.by_type.items()}
        counts["total_entities"] = len(self.entities)
        counts["facts"] = sum(len(v) for e in self.entities.values() for v in e.facts.values())
        return counts


# ---------------------------------------------------------------------------
# World generation
# ---------------------------------------------------------------------------


def build_world(config: WorldConfig | None = None) -> World:
    """Generate the full synthetic world for ``config`` (deterministic)."""
    config = config or WorldConfig()
    world = World(config)
    stream = SeedStream(config.seed).substream("world")

    value_pools = _make_value_pools(world)
    countries = _make_countries(world, stream, value_pools)
    cities = _make_cities(world, stream, countries)
    people = _make_people(world, stream, cities, value_pools)
    _make_marriages(world, stream, people)
    _assign_mayors(world, stream, cities, people, value_pools)
    _make_companies(world, stream, cities, people)
    _make_rivers(world, stream, countries)
    _make_books(world, stream, people, value_pools)
    _make_bands(world, stream, cities, people, value_pools)
    _make_movies(world, stream, people, value_pools)
    _make_universities(world, stream, cities)
    _make_mountains(world, stream, countries)
    _make_foods(world, stream)
    _assign_capitals(world, stream, countries, cities)
    return world


def _make_value_pools(world: World) -> dict[str, dict[str, str]]:
    """Register the small value-entity pools (professions, instruments,
    currencies, languages, genres) and return name -> node maps per type.

    Freebase encodes these as first-class entities whose display string is a
    ``name`` hop away — one of the reasons over 98% of the paper's intents
    map to multi-edge structures rather than direct literal predicates.
    """
    pools_spec = {
        "profession": list(pools.PROFESSIONS),
        "instrument": pools.INSTRUMENTS,
        "currency": pools.CURRENCIES,
        "language": pools.LANGUAGES,
        "genre": sorted(set(pools.GENRES_MUSIC) | set(pools.GENRES_BOOK)),
    }
    mapping: dict[str, dict[str, str]] = {}
    for etype, names in pools_spec.items():
        mapping[etype] = {}
        for i, name in enumerate(names):
            entity = world.register(WorldEntity(
                node=f"m.{etype}_{i:03d}", name=name, etype=etype,
                concepts=_concepts_for(etype),
            ))
            mapping[etype][name] = entity.node
    return mapping


def _with_profession(world: World, people, value_pools, profession: str) -> list[str]:
    """People whose profession fact points at the named profession entity."""
    node = value_pools["profession"][profession]
    return [p for p in people if world.entity(p).get_fact("profession") == (node,)]


def _take_names(generator, count: int, used: set[str]) -> list[str]:
    out: list[str] = []
    for name in generator:
        if name in used:
            continue
        used.add(name)
        out.append(name)
        if len(out) == count:
            return out
    raise ValueError(f"name pool exhausted after {len(out)} of {count}")


def _concepts_for(etype: str, profession: str | None = None) -> tuple[tuple[str, float], ...]:
    base = TYPE_CONCEPTS[etype]
    if etype == "person" and profession:
        return ((PROFESSION_CONCEPTS[profession], 6.0),) + base
    return base


def _make_countries(world: World, stream: SeedStream, value_pools):
    rng = stream.substream("countries").rng()
    count = world.config.n_countries
    names = pools.COUNTRY_NAMES[:count]
    if len(names) < count:
        raise ValueError("not enough country names")
    nodes = []
    for i, name in enumerate(names):
        entity = world.register(WorldEntity(
            node=f"m.country_{i:04d}", name=name, etype="country",
            concepts=_concepts_for("country"),
        ))
        entity.set_fact("population", str(rng.randint(1, 200) * 1_000_000))
        entity.set_fact("area", str(rng.randint(10_000, 2_000_000)))
        entity.set_fact("currency", value_pools["currency"][rng.choice(pools.CURRENCIES)])
        entity.set_fact("language", value_pools["language"][rng.choice(pools.LANGUAGES)])
        nodes.append(entity.node)
    return nodes


def _make_cities(world: World, stream: SeedStream, countries: list[str]):
    rng = stream.substream("cities").rng()
    used = set(world.by_name)
    names = _take_names(pools.city_names(), world.config.n_cities, used)
    nodes = []
    for i, name in enumerate(names):
        entity = world.register(WorldEntity(
            node=f"m.city_{i:04d}", name=name, etype="city",
            concepts=_concepts_for("city"),
        ))
        entity.set_fact("population", str(rng.randint(10, 9_999) * 1_000))
        if rng.random() < 0.85:
            entity.set_fact("area", str(rng.randint(50, 2_500)))
        entity.set_fact("located_country", rng.choice(countries))
        if rng.random() < 0.6:
            entity.set_fact("founded", str(rng.randint(1400, 1990)))
        nodes.append(entity.node)
    return nodes


def _make_people(world: World, stream: SeedStream, cities: list[str], value_pools):
    rng = stream.substream("people").rng()
    used = set(world.by_name)
    names = _take_names(pools.person_names(), world.config.n_people, used)
    professions = list(pools.PROFESSIONS)
    nodes = []
    for i, name in enumerate(names):
        profession = professions[i % len(professions)]
        entity = world.register(WorldEntity(
            node=f"m.person_{i:04d}", name=name, etype="person",
            concepts=_concepts_for("person", profession),
        ))
        entity.set_fact("dob", str(rng.randint(1900, 1995)))
        entity.set_fact("profession", value_pools["profession"][profession])
        if rng.random() < 0.9:
            entity.set_fact("pob", rng.choice(cities))
        if rng.random() < 0.7:
            entity.set_fact("residence", rng.choice(cities))
        if rng.random() < 0.6:
            entity.set_fact("height", str(rng.randint(150, 210)))
        if profession == "musician":
            entity.set_fact("instrument", value_pools["instrument"][rng.choice(pools.INSTRUMENTS)])
        nodes.append(entity.node)
    return nodes


def _make_marriages(world: World, stream: SeedStream, people: list[str]) -> None:
    rng = stream.substream("marriages").rng()
    shuffled = people[:]
    rng.shuffle(shuffled)
    for a, b in zip(shuffled[0::2], shuffled[1::2]):
        if rng.random() < 0.55:
            world.entity(a).set_fact("spouse", b)
            world.entity(b).set_fact("spouse", a)


def _assign_mayors(world: World, stream: SeedStream, cities, people, value_pools) -> None:
    rng = stream.substream("mayors").rng()
    politicians = _with_profession(world, people, value_pools, "politician")
    for city in cities:
        if politicians and rng.random() < 0.8:
            world.entity(city).set_fact("mayor", rng.choice(politicians))


def _make_companies(world: World, stream: SeedStream, cities, people):
    rng = stream.substream("companies").rng()
    used = set(world.by_name) - set(pools.AMBIGUOUS_COMPANY_FOODS)
    names = _take_names(pools.company_names(), world.config.n_companies, used)
    nodes = []
    for i, name in enumerate(names):
        entity = world.register(WorldEntity(
            node=f"m.company_{i:04d}", name=name, etype="company",
            concepts=_concepts_for("company"),
        ))
        entity.set_fact("headquarters", rng.choice(cities))
        entity.set_fact("ceo", rng.choice(people))
        entity.set_fact("founded", str(rng.randint(1850, 2015)))
        if rng.random() < 0.7:
            entity.set_fact("revenue", str(rng.randint(1, 500) * 1_000_000))
        if rng.random() < 0.8:
            entity.set_fact("employees", str(rng.randint(1, 500) * 100))
        board = rng.sample(people, k=rng.randint(1, 3))
        entity.set_fact("board_members", *board)
        nodes.append(entity.node)
    return nodes


def _make_rivers(world: World, stream: SeedStream, countries):
    rng = stream.substream("rivers").rng()
    used = set(world.by_name)
    names = _take_names(pools.river_names(), world.config.n_rivers, used)
    nodes = []
    for i, name in enumerate(names):
        entity = world.register(WorldEntity(
            node=f"m.river_{i:04d}", name=name, etype="river",
            concepts=_concepts_for("river"),
        ))
        entity.set_fact("river_length", str(rng.randint(100, 6_000)))
        entity.set_fact("flows_through", rng.choice(countries))
        nodes.append(entity.node)
    return nodes


def _make_books(world: World, stream: SeedStream, people, value_pools):
    rng = stream.substream("books").rng()
    authors = _with_profession(world, people, value_pools, "author")
    used = set(world.by_name)
    names = _take_names(pools.book_titles(), world.config.n_books, used)
    nodes = []
    by_author: dict[str, list[str]] = {}
    for i, name in enumerate(names):
        entity = world.register(WorldEntity(
            node=f"m.book_{i:04d}", name=name, etype="book",
            concepts=_concepts_for("book"),
        ))
        author = rng.choice(authors) if authors else None
        if author:
            entity.set_fact("author", author)
            by_author.setdefault(author, []).append(entity.node)
        entity.set_fact("published", str(rng.randint(1800, 2016)))
        if rng.random() < 0.8:
            entity.set_fact("pages", str(rng.randint(80, 1_200)))
        entity.set_fact("genre", value_pools["genre"][rng.choice(pools.GENRES_BOOK)])
        nodes.append(entity.node)
    for author, books in by_author.items():
        world.entity(author).set_fact("works_written", *books)
    return nodes


def _make_bands(world: World, stream: SeedStream, cities, people, value_pools):
    rng = stream.substream("bands").rng()
    musicians = _with_profession(world, people, value_pools, "musician")
    used = set(world.by_name) - set(pools.AMBIGUOUS_BAND_PLACES)
    names = _take_names(pools.band_names(), world.config.n_bands, used)
    song_titles = iter(pools.song_titles())
    used_songs = set(world.by_name)
    nodes = []
    song_index = 0
    for i, name in enumerate(names):
        entity = world.register(WorldEntity(
            node=f"m.band_{i:04d}", name=name, etype="band",
            concepts=_concepts_for("band"),
        ))
        members = rng.sample(musicians, k=min(rng.randint(2, 5), len(musicians)))
        entity.set_fact("members", *members)
        entity.set_fact("origin", rng.choice(cities))
        entity.set_fact("formed", str(rng.randint(1950, 2015)))
        entity.set_fact("genre", value_pools["genre"][rng.choice(pools.GENRES_MUSIC)])
        songs = []
        for title in song_titles:
            if title in used_songs:
                continue
            used_songs.add(title)
            song = world.register(WorldEntity(
                node=f"m.song_{song_index:05d}", name=title, etype="song",
                concepts=_concepts_for("song"),
            ))
            song_index += 1
            songs.append(song.node)
            if len(songs) >= rng.randint(2, 4):
                break
        if songs:
            entity.set_fact("songs", *songs)
        nodes.append(entity.node)
    return nodes


def _make_movies(world: World, stream: SeedStream, people, value_pools):
    rng = stream.substream("movies").rng()
    directors = _with_profession(world, people, value_pools, "actor")
    used = set(world.by_name)
    names = _take_names(pools.movie_titles(), world.config.n_movies, used)
    nodes = []
    for i, name in enumerate(names):
        entity = world.register(WorldEntity(
            node=f"m.movie_{i:04d}", name=name, etype="movie",
            concepts=_concepts_for("movie"),
        ))
        if directors:
            entity.set_fact("director", rng.choice(directors))
        entity.set_fact("release", str(rng.randint(1930, 2016)))
        if rng.random() < 0.85:
            entity.set_fact("runtime", str(rng.randint(60, 240)))
        entity.set_fact("genre", value_pools["genre"][rng.choice(pools.GENRES_BOOK)])
        nodes.append(entity.node)
    return nodes


def _make_universities(world: World, stream: SeedStream, cities):
    rng = stream.substream("universities").rng()
    host_cities = rng.sample(cities, k=min(world.config.n_universities, len(cities)))
    nodes = []
    for i, city in enumerate(host_cities):
        name = f"university of {world.name_of(city)}"
        if name in world.by_name:
            continue
        entity = world.register(WorldEntity(
            node=f"m.university_{i:04d}", name=name, etype="university",
            concepts=_concepts_for("university"),
        ))
        entity.set_fact("located_city", city)
        entity.set_fact("founded", str(rng.randint(1200, 1990)))
        entity.set_fact("students", str(rng.randint(1, 60) * 1_000))
        nodes.append(entity.node)
    return nodes


def _make_mountains(world: World, stream: SeedStream, countries):
    rng = stream.substream("mountains").rng()
    used = set(world.by_name)
    names = _take_names(pools.mountain_names(), world.config.n_mountains, used)
    nodes = []
    for i, name in enumerate(names):
        entity = world.register(WorldEntity(
            node=f"m.mountain_{i:04d}", name=name, etype="mountain",
            concepts=_concepts_for("mountain"),
        ))
        entity.set_fact("elevation", str(rng.randint(1_000, 8_800)))
        entity.set_fact("located_country", rng.choice(countries))
        nodes.append(entity.node)
    return nodes


def _make_foods(world: World, stream: SeedStream):
    nodes = []
    for i, name in enumerate(pools.FOOD_NAMES[: world.config.n_foods]):
        entity = world.register(WorldEntity(
            node=f"m.food_{i:04d}", name=name, etype="food",
            concepts=_concepts_for("food"),
        ))
        nodes.append(entity.node)
    return nodes


def _assign_capitals(world: World, stream: SeedStream, countries, cities) -> None:
    """Give each country a capital among its own cities (or any city)."""
    rng = stream.substream("capitals").rng()
    cities_by_country: dict[str, list[str]] = {}
    for city in cities:
        country_fact = world.entity(city).get_fact("located_country")
        if country_fact:
            cities_by_country.setdefault(country_fact[0], []).append(city)
    for country in countries:
        own = cities_by_country.get(country)
        capital = rng.choice(own) if own else rng.choice(cities)
        world.entity(country).set_fact("capital", capital)


# ---------------------------------------------------------------------------
# Chunked minting (the streaming mega-compile seam)
# ---------------------------------------------------------------------------
#
# `build_world` holds every entity in one registry — fine at 10^3
# entities, impossible at 10^6+.  The mega compiler instead mints entities in
# fixed-size chunks: each chunk is derived from (seed, chunk index) alone, so
# chunk k can be regenerated without holding chunks 0..k-1, and every fact
# points either *inside* the chunk (marriages) or at a small shared set of
# **anchor** entities (cities, countries, value pools) taken from a normal
# small world.  Peak resident state is one chunk plus the anchors.

# First-name pool for minted people; the diacritic entries are deliberate —
# they exercise the tokenizer's unicode fold end-to-end (a gazetteer name and
# a typed question must tokenize identically).  Every diacritic decomposes
# under NFD, so each name has an exact ASCII fold.
MEGA_FIRST_NAMES: tuple[str, ...] = (
    "ada", "amos", "bela", "carl", "dina", "elio", "faye", "gus",
    "hana", "ivan", "juno", "kira", "liam", "mona", "nils", "otis",
    "pia", "remy", "sana", "tomas", "ursula", "vera", "wade", "yara",
    "josé", "rené", "zoë", "chloé", "andrés", "françois", "maría", "joão",
    "sören", "björn", "agnès", "inés",
)

# Base tokens for minted cities (again with decomposable diacritics).
MEGA_CITY_BASES: tuple[str, ...] = (
    "alder", "birch", "cedar", "dunmore", "elkton", "fairview", "granby",
    "harlow", "istra", "jasper", "keswick", "lorne", "medina", "norwood",
    "orillia", "pernik", "quarry", "rosetta", "sutton", "tambov",
    "são vicente", "córdoba nueva", "orléans", "valparaíso",
)


@dataclass(frozen=True, slots=True)
class MintAnchors:
    """The shared fact targets every minted chunk points at.

    Extracted once from an ordinary (small) anchor world; the whole structure
    is a few hundred node ids + names, which is what makes chunked minting
    memory-bounded.  ``professions`` is restricted to the professions with a
    concept refinement so minted people conceptualize exactly like built
    ones.
    """

    cities: tuple[str, ...]
    countries: tuple[str, ...]
    professions: tuple[tuple[str, str], ...]  # (profession name, pool node)
    names: dict[str, str]  # anchor node -> display name (gold answers)

    @classmethod
    def from_world(cls, world: World) -> "MintAnchors":
        cities = tuple(world.by_type.get("city", ()))
        countries = tuple(world.by_type.get("country", ()))
        professions = tuple(
            (e.name, e.node)
            for e in world.of_type("profession")
            if e.name in PROFESSION_CONCEPTS
        )
        if not (cities and countries and professions):
            raise ValueError("anchor world lacks cities/countries/professions")
        names = {node: world.name_of(node) for node in cities + countries}
        names.update({node: name for name, node in professions})
        return cls(cities, countries, professions, names)

    @property
    def n_entities(self) -> int:
        return len(self.names)


@dataclass(frozen=True, slots=True)
class ChunkSpec:
    """One chunk's coordinates: fully determined by (seed, index, sizes)."""

    seed: int
    index: int
    n_people: int
    n_cities: int
    person_start: int  # global serial of this chunk's first person
    city_start: int


def mint_chunk(spec: ChunkSpec, anchors: MintAnchors) -> list[WorldEntity]:
    """Mint one chunk of entities with complete fact sets.

    Deterministic in ``(spec.seed, spec.index)`` alone — no dependence on
    other chunks — and serial-suffixed names ("josé p0000123") keep every
    minted name globally unique, so NER resolution over a mega gazetteer is
    unambiguous by construction.  Core facts are always present (not
    probabilistic): the aligned gold QA pairs key on them, and a missing
    fact would turn a gold question into a silent recall loss.
    """
    rng = (
        SeedStream(spec.seed)
        .substream("mega")
        .substream(str(spec.index))
        .rng()
    )
    minted: list[WorldEntity] = []
    people: list[WorldEntity] = []
    for i in range(spec.n_people):
        serial = spec.person_start + i
        first = MEGA_FIRST_NAMES[rng.randrange(len(MEGA_FIRST_NAMES))]
        profession, profession_node = anchors.professions[
            serial % len(anchors.professions)
        ]
        entity = WorldEntity(
            node=f"m.mega_person_{serial:07d}",
            name=f"{first} p{serial:07d}",
            etype="person",
            concepts=_concepts_for("person", profession),
        )
        entity.set_fact("dob", str(rng.randint(1900, 1995)))
        entity.set_fact("profession", profession_node)
        entity.set_fact("pob", anchors.cities[rng.randrange(len(anchors.cities))])
        entity.set_fact(
            "residence", anchors.cities[rng.randrange(len(anchors.cities))]
        )
        entity.set_fact("height", str(rng.randint(150, 210)))
        people.append(entity)
        minted.append(entity)
    # in-chunk marriages: adjacent pairs, ~55% married like `_make_marriages`
    for a, b in zip(people[0::2], people[1::2]):
        if rng.random() < 0.55:
            a.set_fact("spouse", b.node)
            b.set_fact("spouse", a.node)
    for i in range(spec.n_cities):
        serial = spec.city_start + i
        base = MEGA_CITY_BASES[rng.randrange(len(MEGA_CITY_BASES))]
        entity = WorldEntity(
            node=f"m.mega_city_{serial:07d}",
            name=f"{base} c{serial:07d}",
            etype="city",
            concepts=_concepts_for("city"),
        )
        entity.set_fact("population", str(rng.randint(10, 9_999) * 1_000))
        entity.set_fact("area", str(rng.randint(50, 2_500)))
        entity.set_fact(
            "located_country", anchors.countries[rng.randrange(len(anchors.countries))]
        )
        entity.set_fact("founded", str(rng.randint(1400, 1990)))
        minted.append(entity)
    return minted
