"""Deterministic name pools for the synthetic world.

Pools are generated by combining curated word lists, giving thousands of
distinct, natural-looking, lowercase names per entity type.  Generation is
pure (no RNG): pool element ``i`` is always the same string, so world builds
are reproducible and name collisions are controlled.

A small set of *deliberately ambiguous* names is exported so the
conceptualization machinery has real work to do (``apple`` the company vs the
fruit, ``phoenix`` the city vs the band — mirroring the paper's
``apple -> $company | $fruit`` example).
"""

from __future__ import annotations

from typing import Iterator

FIRST_NAMES = [
    "james", "mary", "robert", "patricia", "john", "jennifer", "michael",
    "linda", "david", "elizabeth", "william", "barbara", "richard", "susan",
    "joseph", "jessica", "thomas", "sarah", "charles", "karen", "chris",
    "nancy", "daniel", "lisa", "matthew", "betty", "anthony", "margaret",
    "mark", "sandra", "donald", "ashley", "steven", "kimberly", "paul",
    "emily", "andrew", "donna", "joshua", "michelle", "kenneth", "dorothy",
    "kevin", "carol", "brian", "amanda", "george", "melissa", "edward",
    "deborah", "ronald", "stephanie", "timothy", "rebecca", "jason", "sharon",
    "jeffrey", "laura", "ryan", "cynthia", "jacob", "kathleen", "gary",
    "amy", "nicholas", "angela", "eric", "shirley", "jonathan", "anna",
    "stephen", "brenda", "larry", "pamela", "justin", "emma", "scott",
    "nicole", "brandon", "helen", "benjamin", "samantha", "samuel",
    "katherine", "gregory", "christine", "frank", "debra", "alexander",
    "rachel", "raymond", "carolyn", "patrick", "janet", "jack", "catherine",
    "dennis", "maria", "jerry", "heather", "tyler", "diane", "aaron", "ruth",
    "jose", "julie", "adam", "olivia", "nathan", "joyce", "henry", "virginia",
    "douglas", "victoria", "zachary", "kelly", "peter", "lauren", "kyle",
    "christina", "walter", "joan", "ethan", "evelyn", "jeremy", "judith",
]

LAST_NAMES = [
    "smith", "johnson", "williams", "brown", "jones", "garcia", "miller",
    "davis", "rodriguez", "martinez", "hernandez", "lopez", "gonzalez",
    "wilson", "anderson", "taylor", "moore", "jackson", "martin",
    "lee", "perez", "thompson", "white", "harris", "sanchez", "clark",
    "ramirez", "lewis", "robinson", "walker", "young", "allen", "king",
    "wright", "scott", "torres", "nguyen", "hill", "flores", "green",
    "adams", "nelson", "baker", "hall", "rivera", "campbell", "mitchell",
    "carter", "roberts", "gomez", "phillips", "evans", "turner", "diaz",
    "parker", "cruz", "edwards", "collins", "reyes", "stewart", "morris",
    "morales", "murphy", "cook", "rogers", "gutierrez", "ortiz", "morgan",
    "cooper", "peterson", "bailey", "reed", "kelly", "howard", "ramos",
    "kim", "cox", "ward", "richardson", "watson", "brooks", "chavez",
    "wood", "james", "bennett", "gray", "mendoza", "ruiz", "hughes",
    "price", "alvarez", "castillo", "sanders", "patel", "myers", "long",
    "ross", "foster", "jimenez", "powell", "jenkins", "perry", "russell",
    "sullivan", "bell", "coleman", "butler", "henderson", "barnes",
    "fisher", "vasquez", "simmons", "romero", "jordan", "patterson",
    "alexander", "hamilton", "graham", "reynolds", "griffin", "wallace",
    "moreno", "west", "cole", "hayes", "bryant", "herrera", "gibson",
    "ellis", "tran", "medina", "aguilar", "stevens", "murray", "ford",
    "castro", "marshall", "owens", "harrison", "fernandez", "mcdonald",
]

CITY_ROOTS = [
    "maple", "oak", "cedar", "pine", "elm", "birch", "willow", "ash",
    "brook", "river", "lake", "spring", "clear", "fair", "green", "stone",
    "iron", "silver", "gold", "copper", "crystal", "amber", "shadow",
    "bright", "high", "low", "mill", "bridge", "church", "castle", "king",
    "queen", "rose", "thorn", "fox", "wolf", "bear", "eagle", "falcon",
    "raven", "swan", "deer", "elk", "hazel", "holly", "ivy", "laurel",
    "winter", "summer", "autumn", "harvest", "meadow", "glen", "vale",
    "cliff", "ridge", "crest", "summit", "harbor", "bay", "cove", "marsh",
    "fen", "moor", "heath", "wood", "forest", "grove", "orchard", "garden",
    "field", "plain", "prairie", "dune", "sand", "salt", "frost", "snow",
    "rain", "storm", "thunder", "wind", "cloud", "star", "moon", "sun",
]

CITY_SUFFIXES = [
    "ton", "ville", "burg", "field", "ford", "haven", "port", "mouth",
    "wood", "dale", "view", "side", "gate", "crest", "fall", "bridge",
]

CITY_PREFIXES = ["north", "south", "east", "west", "new", "old", "port", "fort", "san", "mount"]

COUNTRY_NAMES = [
    "aurelia", "boravia", "caledor", "drakmar", "elowen", "fendrel",
    "galdora", "hestonia", "iskaria", "jorvane", "kaltheim", "lumeria",
    "morvania", "norvale", "ostrellia", "pellarin", "quorovia", "rosmarin",
    "sylvaria", "tarkenia", "umbrellia", "vastoria", "wrenfell", "xandrea",
    "yoldavia", "zephyria", "ardenholm", "bexley", "corvandia", "dunmar",
    "eastvale", "farrowland", "grimsdale", "hollowmere", "ironmark",
    "junovia", "kestrelia", "larkspur", "mirefell", "northgard",
    "oakenshield", "pinemoor", "quillon", "ravensmoor", "stormhold",
    "thornwall", "umberfield", "valewick", "westmere", "yarrowdale",
    "ashenvale", "briarcliff", "coldwater", "duskhaven", "emberfall",
    "frostmere", "gladewood", "hartland", "islemoor", "jadewater",
]

COMPANY_ROOTS = [
    "vertex", "nimbus", "quantum", "stellar", "apex", "zenith", "horizon",
    "pinnacle", "catalyst", "fusion", "vector", "matrix", "cipher", "nexus",
    "orbit", "pulse", "spark", "forge", "anvil", "beacon", "compass",
    "lumen", "prism", "quartz", "radiant", "solstice", "tempest", "vortex",
    "wavelength", "axiom", "bolt", "cascade", "delta", "echo", "flux",
    "gradient", "helix", "ion", "junction", "kinetic", "lattice", "meridian",
    "nova", "omega", "polaris", "quasar", "relay", "sigma", "titan",
    "umbra", "vanguard", "whirlwind", "xenon", "yield", "zodiac", "argon",
    "borealis", "cobalt", "dynamo", "ember", "fathom", "glacier", "halo",
]

COMPANY_SUFFIXES = ["corp", "systems", "labs", "industries", "group", "works", "dynamics", "technologies"]

# Company names chosen to collide with food words (the paper's apple case).
AMBIGUOUS_COMPANY_FOODS = ["apple", "orange", "mango", "kiwi", "papaya", "fig"]

FOOD_NAMES = AMBIGUOUS_COMPANY_FOODS + [
    "banana", "cherry", "grape", "lemon", "melon", "peach", "pear", "plum",
    "apricot", "guava", "lychee", "date",
]

RIVER_ROOTS = [
    "silverrun", "blackwater", "longreach", "coldstream", "whitefall",
    "greenbend", "stonebrook", "clearwater", "redfork", "goldriver",
    "swiftwater", "deepcurrent", "broadstream", "mistflow", "rapidfall",
    "stillwater", "brightrun", "darkbend", "windingbrook", "thunderrun",
    "cascadia", "torrentia", "meander", "oxbow", "tributary", "confluence",
    "riverrun", "streamfell", "brookhollow", "watersmeet", "fallsworth",
    "rivermoor", "creekside", "streamline", "floodvale", "rillwater",
    "beckford", "bournemoor", "ghyllwater", "sikewell",
]

BOOK_ADJECTIVES = [
    "silent", "hidden", "forgotten", "eternal", "broken", "golden", "silver",
    "crimson", "emerald", "sapphire", "midnight", "morning", "evening",
    "distant", "ancient", "final", "first", "last", "lost", "secret",
    "shattered", "burning", "frozen", "whispering", "wandering", "sleeping",
    "rising", "falling", "endless", "boundless",
]

BOOK_NOUNS = [
    "garden", "tower", "mirror", "ocean", "mountain", "shadow", "flame",
    "crown", "throne", "sword", "shield", "lantern", "compass", "voyage",
    "journey", "kingdom", "empire", "city", "village", "harbor", "island",
    "desert", "forest", "river", "storm", "winter", "summer", "dawn",
    "dusk", "horizon", "memory", "promise", "secret", "song", "dream",
]

BAND_WORDS = [
    "velvet", "neon", "electric", "cosmic", "lunar", "solar", "crystal",
    "midnight", "scarlet", "golden", "silver", "wild", "savage", "gentle",
    "broken", "burning", "frozen", "phantom", "spectral", "echoing",
    "thunder", "lightning", "rainfall", "sunset", "sunrise", "twilight",
    "aurora", "eclipse", "nebula", "galaxy",
]

BAND_NOUNS = [
    "foxes", "wolves", "tigers", "ravens", "sparrows", "owls", "lions",
    "serpents", "dragons", "phantoms", "spirits", "echoes", "waves",
    "tides", "embers", "ashes", "stones", "roses", "thorns", "shadows",
    "lights", "stars", "moons", "suns", "skies", "storms", "winds",
    "rivers", "mountains", "valleys",
]

# Bands named after cities/places (second ambiguity axis).
AMBIGUOUS_BAND_PLACES = ["phoenix", "savannah", "aurora", "sierra"]

MOVIE_NOUNS = [
    "reckoning", "awakening", "descent", "ascension", "crossing", "return",
    "departure", "arrival", "pursuit", "escape", "siege", "uprising",
    "betrayal", "redemption", "sacrifice", "vengeance", "legacy", "destiny",
    "odyssey", "expedition", "frontier", "threshold", "paradox", "enigma",
    "labyrinth", "covenant", "prophecy", "requiem", "overture", "finale",
]

MOUNTAIN_ROOTS = [
    "kelvaro", "dunmore", "skyreach", "stormpeak", "ironhorn", "greyspire",
    "whitecap", "thunderhead", "eaglecrest", "wolfsummit", "bearclaw",
    "ravenspire", "frostfang", "emberpeak", "shadowhorn", "brightspur",
    "coldcrag", "highmourn", "starcliff", "moonspire", "sunspear",
    "cloudpiercer", "windcarve", "stonefang", "mistcrown", "snowmantle",
    "hailstone", "rimeheart", "glacierpoint", "avalanche",
]

INSTRUMENTS = [
    "guitar", "bass", "drums", "piano", "violin", "cello", "saxophone",
    "trumpet", "flute", "synthesizer", "harmonica", "banjo",
]

GENRES_MUSIC = [
    "rock", "jazz", "folk", "electronic", "blues", "indie", "metal",
    "pop", "ambient", "punk",
]

GENRES_BOOK = [
    "mystery", "fantasy", "romance", "thriller", "biography", "history",
    "science fiction", "poetry", "satire", "memoir",
]

CURRENCIES = [
    "crown", "mark", "florin", "ducat", "thaler", "guilder", "shilling",
    "dram", "dinar", "peso", "real", "franc",
]

LANGUAGES = [
    "aurelian", "boravian", "caledorian", "norvalese", "lumerian",
    "sylvarian", "tarkenian", "vastorian", "iskarian", "morvanian",
    "pellarine", "quorovian",
]

PROFESSIONS = {
    "politician": "politician",
    "actor": "actor",
    "scientist": "scientist",
    "musician": "musician",
    "author": "author",
}


def person_names() -> Iterator[str]:
    """Endless distinct person names: first x last, then with middle initial."""
    for last in LAST_NAMES:
        for first in FIRST_NAMES:
            yield f"{first} {last}"


def city_names() -> Iterator[str]:
    """Distinct city names, ambiguous place names first."""
    yield from AMBIGUOUS_BAND_PLACES
    for root in CITY_ROOTS:
        for suffix in CITY_SUFFIXES:
            yield f"{root}{suffix}"
    for prefix in CITY_PREFIXES:
        for root in CITY_ROOTS:
            yield f"{prefix} {root}ton"


def company_names() -> Iterator[str]:
    """Distinct company names, food-colliding ones first."""
    yield from AMBIGUOUS_COMPANY_FOODS
    for root in COMPANY_ROOTS:
        yield root
    for root in COMPANY_ROOTS:
        for suffix in COMPANY_SUFFIXES:
            yield f"{root} {suffix}"


def river_names() -> Iterator[str]:
    """River names from dedicated roots plus city roots."""
    for root in RIVER_ROOTS:
        yield f"{root} river"
    for root in CITY_ROOTS:
        yield f"{root} river"


def book_titles() -> Iterator[str]:
    """Book titles: 'the <adjective> <noun>'."""
    for adjective in BOOK_ADJECTIVES:
        for noun in BOOK_NOUNS:
            yield f"the {adjective} {noun}"


def band_names() -> Iterator[str]:
    """Band names, place-colliding ones first."""
    yield from AMBIGUOUS_BAND_PLACES
    for word in BAND_WORDS:
        for noun in BAND_NOUNS:
            yield f"the {word} {noun}"


def movie_titles() -> Iterator[str]:
    """Movie titles: 'the <adjective> <noun>'."""
    for adjective in BOOK_ADJECTIVES:
        for noun in MOVIE_NOUNS:
            yield f"the {adjective} {noun}"


def mountain_names() -> Iterator[str]:
    """Mountain names: mount <root>, <root> peak/ridge."""
    for root in MOUNTAIN_ROOTS:
        yield f"mount {root}"
    for root in MOUNTAIN_ROOTS:
        yield f"{root} peak"
    for root in MOUNTAIN_ROOTS:
        yield f"{root} ridge"


def song_titles() -> Iterator[str]:
    """Song titles: '<band word> <noun>'."""
    for word in BAND_WORDS:
        for noun in BOOK_NOUNS:
            yield f"{word} {noun}"
